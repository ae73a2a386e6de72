// Unit tests for gold standards, quality metrics and the report tables.

#include <gtest/gtest.h>

#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "eval/gold.h"
#include "eval/match_report.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "xsd/builder.h"

namespace qmatch::eval {
namespace {

// --- GoldStandard ----------------------------------------------------

TEST(GoldStandardTest, AddAndContains) {
  GoldStandard gold;
  gold.Add("/a/b", "/x/y");
  EXPECT_TRUE(gold.Contains("/a/b", "/x/y"));
  EXPECT_FALSE(gold.Contains("/x/y", "/a/b"));
  EXPECT_EQ(gold.size(), 1u);
  gold.Add("/a/b", "/x/y");  // duplicate ignored
  EXPECT_EQ(gold.size(), 1u);
}

TEST(GoldStandardTest, ParseTextFormat) {
  Result<GoldStandard> gold = GoldStandard::Parse(R"(
# purchase order task
/PO/OrderNo -> /PurchaseOrder/OrderNo

/PO/PurchaseDate->/PurchaseOrder/Date
)");
  ASSERT_TRUE(gold.ok()) << gold.status();
  EXPECT_EQ(gold->size(), 2u);
  EXPECT_TRUE(gold->Contains("/PO/OrderNo", "/PurchaseOrder/OrderNo"));
  EXPECT_TRUE(gold->Contains("/PO/PurchaseDate", "/PurchaseOrder/Date"));
}

TEST(GoldStandardTest, ParseRejectsMissingArrow) {
  EXPECT_FALSE(GoldStandard::Parse("/a/b /x/y").ok());
  EXPECT_FALSE(GoldStandard::Parse("-> /x").ok());
  EXPECT_FALSE(GoldStandard::Parse("/x ->").ok());
}

TEST(GoldStandardTest, ToStringRoundtrips) {
  GoldStandard gold;
  gold.Add("/a", "/x");
  gold.Add("/b", "/y");
  Result<GoldStandard> reparsed = GoldStandard::Parse(gold.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->pairs(), gold.pairs());
}

// --- Metrics ------------------------------------------------------------

// Builds a MatchResult over tiny schemas whose node paths we control.
struct Fixture {
  xsd::Schema source;
  xsd::Schema target;

  Fixture() {
    xsd::SchemaBuilder sb("s");
    xsd::SchemaNode* sroot = sb.Root("S");
    sb.Element(sroot, "a");
    sb.Element(sroot, "b");
    sb.Element(sroot, "c");
    source = std::move(sb).Build();
    xsd::SchemaBuilder tb("t");
    xsd::SchemaNode* troot = tb.Root("T");
    tb.Element(troot, "x");
    tb.Element(troot, "y");
    tb.Element(troot, "z");
    target = std::move(tb).Build();
  }

  Correspondence Map(const char* s, const char* t) const {
    return Correspondence{source.FindByPath(s), target.FindByPath(t), 1.0};
  }
};

TEST(MetricsTest, PerfectResult) {
  Fixture f;
  GoldStandard gold;
  gold.Add("/S/a", "/T/x");
  gold.Add("/S/b", "/T/y");
  MatchResult result;
  result.correspondences = {f.Map("/S/a", "/T/x"), f.Map("/S/b", "/T/y")};
  QualityMetrics m = Evaluate(result, gold);
  EXPECT_EQ(m.true_positives, 2u);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.overall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(MetricsTest, MixedResult) {
  Fixture f;
  GoldStandard gold;
  gold.Add("/S/a", "/T/x");
  gold.Add("/S/b", "/T/y");
  gold.Add("/S/c", "/T/z");
  MatchResult result;
  // One correct, one wrong; one gold pair missed entirely.
  result.correspondences = {f.Map("/S/a", "/T/x"), f.Map("/S/b", "/T/z")};
  QualityMetrics m = Evaluate(result, gold);
  EXPECT_EQ(m.real, 3u);
  EXPECT_EQ(m.returned, 2u);
  EXPECT_EQ(m.true_positives, 1u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.missed, 2u);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_NEAR(m.recall, 1.0 / 3.0, 1e-12);
  // Overall = 1 - (F+M)/R = 1 - 3/3 = 0.
  EXPECT_NEAR(m.overall, 0.0, 1e-12);
}

TEST(MetricsTest, OverallIdentityHolds) {
  // Overall = Recall * (2 - 1/Precision) per Section 5.
  Fixture f;
  GoldStandard gold;
  gold.Add("/S/a", "/T/x");
  gold.Add("/S/b", "/T/y");
  gold.Add("/S/c", "/T/z");
  MatchResult result;
  result.correspondences = {f.Map("/S/a", "/T/x"), f.Map("/S/b", "/T/y"),
                            f.Map("/S/c", "/T/x")};
  QualityMetrics m = Evaluate(result, gold);
  ASSERT_GT(m.precision, 0.0);
  EXPECT_NEAR(m.overall, m.recall * (2.0 - 1.0 / m.precision), 1e-12);
}

TEST(MetricsTest, OverallCanBeNegative) {
  Fixture f;
  GoldStandard gold;
  gold.Add("/S/a", "/T/x");
  MatchResult result;
  result.correspondences = {f.Map("/S/a", "/T/y"), f.Map("/S/b", "/T/z")};
  QualityMetrics m = Evaluate(result, gold);
  EXPECT_LT(m.overall, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
}

TEST(MetricsTest, EmptyResultAndEmptyGold) {
  MatchResult result;
  GoldStandard gold;
  QualityMetrics m = Evaluate(result, gold);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.overall, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(MetricsTest, ToStringListsAllCounts) {
  Fixture f;
  GoldStandard gold;
  gold.Add("/S/a", "/T/x");
  MatchResult result;
  result.correspondences = {f.Map("/S/a", "/T/x")};
  std::string s = Evaluate(result, gold).ToString();
  EXPECT_NE(s.find("R=1"), std::string::npos);
  EXPECT_NE(s.find("precision=1.000"), std::string::npos);
}

// --- TextTable ---------------------------------------------------------

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Every line has the same length (fixed-width layout).
  size_t first_newline = out.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NO_THROW({ std::string s = table.ToString(); });
}

TEST(NumTest, FormatsDigits) {
  EXPECT_EQ(Num(0.5), "0.500");
  EXPECT_EQ(Num(1.0 / 3.0, 2), "0.33");
  EXPECT_EQ(Num(-0.25, 1), "-0.2");
}

TEST(GoldStandardTest, FromMatchResultRoundtrips) {
  xsd::Schema source = datagen::MakePO1();
  xsd::Schema target = datagen::MakePO2();
  core::QMatch matcher;
  MatchResult result = matcher.Match(source, target);
  GoldStandard saved = GoldStandard::FromMatchResult(result);
  EXPECT_EQ(saved.size(), result.correspondences.size());
  // Re-evaluating the result against its own saved mapping is perfect.
  QualityMetrics m = Evaluate(result, saved);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  // ...and the text form parses back identically.
  Result<GoldStandard> reparsed = GoldStandard::Parse(saved.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->pairs(), saved.pairs());
}

// --- RenderMatchReport --------------------------------------------------

TEST(MatchReportTest, ContainsAllSections) {
  xsd::Schema source = datagen::MakePO1();
  xsd::Schema target = datagen::MakePO2();
  core::QMatch matcher;
  MatchResult result = matcher.Match(source, target);
  GoldStandard gold = datagen::GoldPO();
  std::string report = RenderMatchReport(source, target, result, &gold);
  EXPECT_NE(report.find("# Match report: PO1 vs PO2"), std::string::npos);
  EXPECT_NE(report.find("### source schema: `PO1`"), std::string::npos);
  EXPECT_NE(report.find("### Correspondences"), std::string::npos);
  EXPECT_NE(report.find("### Quality vs gold standard"), std::string::npos);
  EXPECT_NE(report.find("`/PO/OrderNo`"), std::string::npos);
  // Perfect match on PO: no false-positive markers, no missed section.
  EXPECT_EQ(report.find("false positive"), std::string::npos) << report;
  EXPECT_EQ(report.find("missed real matches"), std::string::npos);
}

TEST(MatchReportTest, MarksFalsePositivesAndMisses) {
  xsd::Schema source = datagen::MakeArticle();
  xsd::Schema target = datagen::MakeBook();
  core::QMatch matcher;
  MatchResult result = matcher.Match(source, target);
  GoldStandard gold = datagen::GoldBooks();
  std::string report = RenderMatchReport(source, target, result, &gold);
  EXPECT_NE(report.find("false positive"), std::string::npos);
  EXPECT_NE(report.find("missed real matches"), std::string::npos);
}

TEST(MatchReportTest, WithoutGoldOmitsQualitySection) {
  xsd::Schema source = datagen::MakePO1();
  xsd::Schema target = datagen::MakePO2();
  core::QMatch matcher;
  MatchResult result = matcher.Match(source, target);
  std::string report = RenderMatchReport(source, target, result);
  EXPECT_EQ(report.find("Quality vs gold"), std::string::npos);
  EXPECT_NE(report.find("### Correspondences"), std::string::npos);
}

TEST(MatchReportTest, MaxRowsElides) {
  xsd::Schema source = datagen::MakeDcmdItem();
  xsd::Schema target = datagen::MakeDcmdOrder();
  core::QMatch matcher;
  MatchResult result = matcher.Match(source, target);
  MatchReportOptions options;
  options.max_rows = 2;
  std::string report =
      RenderMatchReport(source, target, result, nullptr, options);
  EXPECT_NE(report.find("more rows elided"), std::string::npos);
}

}  // namespace
}  // namespace qmatch::eval
