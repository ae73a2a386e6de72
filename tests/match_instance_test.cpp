// Unit tests for the instance-level (data-value) matcher.

#include <gtest/gtest.h>

#include "datagen/corpus.h"
#include "match/composite_matcher.h"
#include "match/instance_matcher.h"
#include "support/docgen.h"
#include "xml/parser.h"
#include "xsd/builder.h"
#include "xsd/infer.h"

namespace qmatch::match {
namespace {

using Values = std::vector<std::string>;

// --- ValueSetSimilarity ------------------------------------------------

TEST(ValueSetSimilarityTest, ExactOverlap) {
  EXPECT_DOUBLE_EQ(InstanceMatcher::ValueSetSimilarity(
                       Values{"a", "b", "c"}, Values{"a", "b", "c"}),
                   1.0);
}

TEST(ValueSetSimilarityTest, CaseInsensitiveOverlapCoefficient) {
  // {a,b} vs {B,c}: intersection {b}, min set size 2 -> 0.5.
  EXPECT_NEAR(InstanceMatcher::ValueSetSimilarity(Values{"A", "b"},
                                                  Values{"B", "c"}),
              0.5, 1e-12);
  // Sample-size asymmetry does not dilute: {a} fully contained in a
  // 4-value sample scores 1.
  EXPECT_DOUBLE_EQ(InstanceMatcher::ValueSetSimilarity(
                       Values{"a"}, Values{"a", "b", "c", "d"}),
                   1.0);
}

TEST(ValueSetSimilarityTest, DisjointStringsScoreZero) {
  EXPECT_DOUBLE_EQ(InstanceMatcher::ValueSetSimilarity(Values{"x", "y"},
                                                       Values{"p", "q"}),
                   0.0);
}

TEST(ValueSetSimilarityTest, NumericRangeOverlap) {
  // [10, 20] vs [15, 25]: inner 5, outer 15 -> 1/3 even with no exact
  // value in common.
  EXPECT_NEAR(InstanceMatcher::ValueSetSimilarity(Values{"10", "20"},
                                                  Values{"15", "25"}),
              1.0 / 3.0, 1e-12);
  // Disjoint ranges: 0.
  EXPECT_DOUBLE_EQ(InstanceMatcher::ValueSetSimilarity(Values{"1", "2"},
                                                       Values{"50", "60"}),
                   0.0);
}

TEST(ValueSetSimilarityTest, IdenticalConstants) {
  EXPECT_DOUBLE_EQ(
      InstanceMatcher::ValueSetSimilarity(Values{"42"}, Values{"42"}), 1.0);
  EXPECT_DOUBLE_EQ(
      InstanceMatcher::ValueSetSimilarity(Values{"42"}, Values{"43"}), 0.0);
}

TEST(ValueSetSimilarityTest, EmptySetsScoreZero) {
  EXPECT_DOUBLE_EQ(InstanceMatcher::ValueSetSimilarity(Values{}, Values{"a"}),
                   0.0);
  EXPECT_DOUBLE_EQ(InstanceMatcher::ValueSetSimilarity(Values{""}, Values{"a"}),
                   0.0);
}

// --- End-to-end ----------------------------------------------------------

struct Fixture {
  // Two label-disjoint schemas describing the same data.
  xsd::Schema source_schema;
  xsd::Schema target_schema;
  Result<xml::XmlDocument> source_doc = xml::Parse(R"(<shop>
    <article><label>Widget</label><cost>9.99</cost></article>
    <article><label>Gadget</label><cost>19.99</cost></article>
  </shop>)");
  Result<xml::XmlDocument> target_doc = xml::Parse(R"(<store>
    <product><name>Widget</name><price>9.99</price></product>
    <product><name>Doohickey</name><price>14.50</price></product>
  </store>)");

  Fixture() {
    Result<xsd::Schema> s = xsd::InferSchema(*source_doc);
    Result<xsd::Schema> t = xsd::InferSchema(*target_doc);
    EXPECT_TRUE(s.ok() && t.ok());
    source_schema = std::move(s).value();
    target_schema = std::move(t).value();
  }
};

TEST(InstanceMatcherTest, MatchesByValuesNotLabels) {
  Fixture f;
  InstanceMatcher matcher({&*f.source_doc}, {&*f.target_doc});
  MatchResult result = matcher.Match(f.source_schema, f.target_schema);
  // "label" and "name" share the value "Widget"; "cost" and "price" share
  // 9.99 plus an overlapping numeric range — both found without any label
  // or structural evidence.
  EXPECT_TRUE(result.Contains("/shop/article/label", "/store/product/name"))
      << result.ToString();
  EXPECT_TRUE(result.Contains("/shop/article/cost", "/store/product/price"))
      << result.ToString();
}

TEST(InstanceMatcherTest, InnerNodesLinkThroughLeaves) {
  Fixture f;
  InstanceMatcher matcher({&*f.source_doc}, {&*f.target_doc});
  SimilarityMatrix matrix =
      matcher.Similarity(f.source_schema, f.target_schema);
  const xsd::SchemaNode* article =
      f.source_schema.FindByPath("/shop/article");
  const xsd::SchemaNode* product =
      f.target_schema.FindByPath("/store/product");
  ASSERT_NE(article, nullptr);
  ASSERT_NE(product, nullptr);
  size_t i = 0;
  size_t j = 0;
  for (size_t k = 0; k < matrix.source_count(); ++k) {
    if (matrix.sources()[k] == article) i = k;
  }
  for (size_t k = 0; k < matrix.target_count(); ++k) {
    if (matrix.targets()[k] == product) j = k;
  }
  EXPECT_GT(matrix.at(i, j), 0.5) << "subtrees share linked leaves";
}

TEST(InstanceMatcherTest, NoDocumentsMeansNoMatches) {
  Fixture f;
  InstanceMatcher matcher({}, {});
  MatchResult result = matcher.Match(f.source_schema, f.target_schema);
  EXPECT_TRUE(result.correspondences.empty());
  EXPECT_DOUBLE_EQ(result.schema_qom, 0.0);
}

TEST(InstanceMatcherTest, MismatchedDocumentsAreIgnored) {
  Fixture f;
  // Source documents bound to the *target* schema root: no values collect.
  InstanceMatcher matcher({&*f.target_doc}, {&*f.source_doc});
  MatchResult result = matcher.Match(f.source_schema, f.target_schema);
  EXPECT_TRUE(result.correspondences.empty());
}

TEST(InstanceMatcherTest, ComposesWithOtherMatchers) {
  Fixture f;
  InstanceMatcher instance({&*f.source_doc}, {&*f.target_doc});
  CompositeMatcher::Options options;
  options.aggregation = CompositeMatcher::Aggregation::kMax;
  CompositeMatcher composite({&instance}, options);
  MatchResult result = composite.Match(f.source_schema, f.target_schema);
  EXPECT_TRUE(result.Contains("/shop/article/cost", "/store/product/price"));
}

TEST(InstanceMatcherTest, GeneratedDocumentsSelfMatch) {
  xsd::Schema schema = datagen::MakePO1();
  datagen::DocGenOptions docgen;
  docgen.seed = 7;
  xml::XmlDocument doc = datagen::GenerateDocument(schema, docgen);
  InstanceMatcher matcher({&doc}, {&doc});
  xsd::Schema copy = schema.Clone();
  MatchResult result = matcher.Match(schema, copy);
  // Every populated leaf matches itself with similarity 1.
  for (const Correspondence& c : result.correspondences) {
    if (c.source->IsLeaf()) {
      EXPECT_EQ(c.source->Path(), c.target->Path());
      EXPECT_DOUBLE_EQ(c.score, 1.0);
    }
  }
  EXPECT_FALSE(result.correspondences.empty());
}

}  // namespace
}  // namespace qmatch::match
