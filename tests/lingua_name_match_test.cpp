// Unit and property tests for the CUPID-style name matcher and the
// precomputing pairwise scorer (including its exact non-match skip).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "obs/metrics.h"
#include "xsd/flatten.h"

namespace qmatch::lingua {
namespace {

NameMatcher DefaultMatcher() { return NameMatcher(&DefaultThesaurus()); }

TEST(NameMatchTest, IdenticalLabelsAreExact) {
  NameMatcher m = DefaultMatcher();
  LabelMatch lm = m.Match("OrderNo", "OrderNo");
  EXPECT_EQ(lm.cls, LabelMatchClass::kExact);
  EXPECT_DOUBLE_EQ(lm.score, 1.0);
}

TEST(NameMatchTest, CaseAndConventionInsensitive) {
  NameMatcher m = DefaultMatcher();
  EXPECT_EQ(m.Match("order_no", "OrderNo").cls, LabelMatchClass::kExact);
  // An unsegmented all-caps run is a single token; "order" is a full
  // prefix of "orderno", so the pair degrades to a relaxed fuzzy match.
  EXPECT_EQ(m.Match("ORDERNO", "OrderNo").cls, LabelMatchClass::kRelaxed);
  EXPECT_EQ(m.Match("purchase-date", "PurchaseDate").cls,
            LabelMatchClass::kExact);
}

TEST(NameMatchTest, PluralsAreExact) {
  NameMatcher m = DefaultMatcher();
  EXPECT_EQ(m.Match("Item", "Items").cls, LabelMatchClass::kExact);
  EXPECT_EQ(m.Match("Categories", "Category").cls, LabelMatchClass::kExact);
}

TEST(NameMatchTest, SynonymsAreExactPerPaper) {
  NameMatcher m = DefaultMatcher();
  LabelMatch lm = m.Match("Author", "Writer");
  EXPECT_EQ(lm.cls, LabelMatchClass::kExact);
  EXPECT_DOUBLE_EQ(lm.score, m.options().synonym_score);
  EXPECT_LT(lm.score, 1.0) << "identical strings must outrank synonyms";
}

TEST(NameMatchTest, AcronymsAreRelaxed) {
  NameMatcher m = DefaultMatcher();
  LabelMatch lm = m.Match("UOM", "UnitOfMeasure");
  EXPECT_EQ(lm.cls, LabelMatchClass::kRelaxed);
  EXPECT_NEAR(lm.score, m.options().acronym_score, 1e-12);
}

TEST(NameMatchTest, AbbreviationsAreRelaxed) {
  NameMatcher m = DefaultMatcher();
  LabelMatch lm = m.Match("Qty", "Quantity");
  EXPECT_EQ(lm.cls, LabelMatchClass::kRelaxed);
  EXPECT_NEAR(lm.score, m.options().abbreviation_score, 1e-12);
}

TEST(NameMatchTest, HypernymsAreRelaxed) {
  NameMatcher m = DefaultMatcher();
  LabelMatch lm = m.Match("Date", "PurchaseDate");
  EXPECT_EQ(lm.cls, LabelMatchClass::kRelaxed);
}

TEST(NameMatchTest, TokenOverlapIsRelaxed) {
  NameMatcher m = DefaultMatcher();
  // {purchase, info} vs {purchase, order}: partial token overlap.
  LabelMatch lm = m.Match("PurchaseInfo", "PurchaseOrder");
  EXPECT_EQ(lm.cls, LabelMatchClass::kRelaxed);
  EXPECT_GT(lm.score, 0.45);
  EXPECT_LT(lm.score, 1.0);
}

TEST(NameMatchTest, DisjointVocabulariesAreNone) {
  NameMatcher m = DefaultMatcher();
  EXPECT_EQ(m.Match("Library", "Human").cls, LabelMatchClass::kNone);
  EXPECT_EQ(m.Match("Writer", "Legs").cls, LabelMatchClass::kNone);
  EXPECT_EQ(m.Match("Material", "Email").cls, LabelMatchClass::kNone);
}

TEST(NameMatchTest, EmptyLabelsNeverMatch) {
  NameMatcher m = DefaultMatcher();
  EXPECT_EQ(m.Match("", "x").cls, LabelMatchClass::kNone);
  EXPECT_EQ(m.Match("x", "").cls, LabelMatchClass::kNone);
  EXPECT_EQ(m.Match("", "").cls, LabelMatchClass::kNone);
}

TEST(NameMatchTest, WithoutThesaurusStringOnly) {
  NameMatcher m(nullptr);
  EXPECT_EQ(m.Match("OrderNo", "OrderNo").cls, LabelMatchClass::kExact);
  // Synonym knowledge requires the thesaurus.
  EXPECT_EQ(m.Match("Author", "Writer").cls, LabelMatchClass::kNone);
  // Morphological similarity still works.
  EXPECT_EQ(m.Match("Shipping", "Ship").cls, LabelMatchClass::kRelaxed);
}

TEST(NameMatchTest, PrepareProducesCanonicalTokens) {
  PreparedLabel p = NameMatcher::Prepare("OrderLines");
  EXPECT_EQ(p.canonical, "order line");
  ASSERT_EQ(p.tokens.size(), 2u);
  EXPECT_EQ(p.tokens[0], "order");
  EXPECT_EQ(p.tokens[1], "line");
}

TEST(NameMatchTest, ScoreIsSymmetricForTokenPaths) {
  NameMatcher m = DefaultMatcher();
  const char* labels[] = {"PurchaseInfo", "PurchaseOrder", "OrderNo",
                          "BillingAddr", "ShipTo", "UnitOfMeasure"};
  for (const char* a : labels) {
    for (const char* b : labels) {
      LabelMatch ab = m.Match(a, b);
      LabelMatch ba = m.Match(b, a);
      EXPECT_NEAR(ab.score, ba.score, 1e-9) << a << " vs " << b;
      EXPECT_EQ(ab.cls, ba.cls) << a << " vs " << b;
    }
  }
}

// --- PairwiseLabelScorer consistency ------------------------------------

class ScorerConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScorerConsistencyTest, ScorerEqualsDirectMatcher) {
  Random rng(GetParam());
  const std::vector<std::string> pool = {
      "OrderNo",   "PurchaseInfo", "Qty",      "Quantity", "UOM",
      "Items",     "Line",         "BillTo",   "Author",   "Writer",
      "Sequence",  "Protein",      "Material", "Email",    "Address2",
      "ShipDate",  "UnitPrice",    "XyzzyQ",   "Title",    "Book",
  };
  std::vector<std::string> source;
  std::vector<std::string> target;
  for (int i = 0; i < 12; ++i) {
    source.push_back(pool[rng.Uniform(pool.size())]);
    target.push_back(pool[rng.Uniform(pool.size())]);
  }
  NameMatcher matcher(&DefaultThesaurus());
  PairwiseLabelScorer scorer(matcher, source, target);
  for (size_t i = 0; i < source.size(); ++i) {
    for (size_t j = 0; j < target.size(); ++j) {
      LabelMatch direct = matcher.Match(source[i], target[j]);
      LabelMatch cached = scorer.Match(i, j);
      EXPECT_EQ(direct.cls, cached.cls)
          << source[i] << " vs " << target[j];
      EXPECT_NEAR(direct.score, cached.score, 1e-12)
          << source[i] << " vs " << target[j];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScorerConsistencyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// --- The exact non-match skip ---------------------------------------------

bool SameBits(const LabelMatch& a, const LabelMatch& b) {
  return a.cls == b.cls &&
         std::bit_cast<uint64_t>(a.score) == std::bit_cast<uint64_t>(b.score);
}

bool Mentioned(const std::string& label) {
  return DefaultThesaurus().MentionedCanonical(
      NameMatcher::Prepare(label).canonical);
}

/// Checks every pair of `source` x `target` and returns how many the
/// scorer skipped. A skipped pair must come back {kNone, +0.0}, involve no
/// thesaurus-mentioned label, and score exactly +0.0 in a scorer whose skip
/// cannot fire (relaxed_threshold = 0, otherwise the same configuration):
/// so the un-skipped path, under the real positive thresholds, classifies
/// it {kNone, 0.0} too. Every `direct_stride`-th pair (0 = none) is also
/// compared bit for bit with NameMatcher::Match on the raw labels.
uint64_t CheckSkip(const std::vector<std::string>& source,
                   const std::vector<std::string>& target,
                   size_t direct_stride, const std::string& context) {
  const NameMatcher matcher(&DefaultThesaurus());
  NameMatchOptions no_skip_options;
  no_skip_options.relaxed_threshold = 0.0;
  const NameMatcher no_skip_matcher(&DefaultThesaurus(), no_skip_options);
  const PairwiseLabelScorer scorer(matcher, source, target);
  const PairwiseLabelScorer no_skip(no_skip_matcher, source, target);
  std::vector<bool> source_mentioned;
  std::vector<bool> target_mentioned;
  for (const std::string& label : source) {
    source_mentioned.push_back(Mentioned(label));
  }
  for (const std::string& label : target) {
    target_mentioned.push_back(Mentioned(label));
  }
  uint64_t skipped = 0;
  size_t pair = 0;
  for (size_t i = 0; i < source.size(); ++i) {
    for (size_t j = 0; j < target.size(); ++j, ++pair) {
      uint64_t was_skipped = 0;
      const LabelMatch got = scorer.Match(i, j, &was_skipped);
      auto where = [&] {
        return context + ": " + source[i] + " vs " + target[j];
      };
      if (was_skipped != 0) {
        ++skipped;
        EXPECT_TRUE(SameBits(got, LabelMatch{LabelMatchClass::kNone, 0.0}))
            << where();
        EXPECT_FALSE(source_mentioned[i] || target_mentioned[j]) << where();
        uint64_t never = 0;
        const LabelMatch full = no_skip.Match(i, j, &never);
        EXPECT_EQ(never, 0u) << where();
        EXPECT_EQ(std::bit_cast<uint64_t>(full.score), uint64_t{0})
            << where();
      }
      if (direct_stride != 0 && pair % direct_stride == 0) {
        EXPECT_TRUE(SameBits(got, matcher.Match(source[i], target[j])))
            << where();
      }
      if (::testing::Test::HasFailure()) return skipped;
    }
  }
  return skipped;
}

TEST(LabelSkipTest, ExactOverEveryCorpusLabelPair) {
  // Every distinct label of the paper corpus against every other (PDB
  // included): ~6.6M pairs, every skipped one checked, a stride compared
  // with the direct matcher.
  std::set<std::string> labels;
  for (const datagen::CorpusEntry& entry : datagen::Corpus()) {
    const xsd::Schema schema = entry.make();
    labels.insert(schema.Flat().labels.begin(), schema.Flat().labels.end());
  }
  const std::vector<std::string> all(labels.begin(), labels.end());
  const uint64_t skipped = CheckSkip(all, all, 997, "corpus");
  EXPECT_GT(skipped, all.size() * all.size() / 2) << "the skip is the norm";
}

TEST(LabelSkipTest, ExactOnSeededGeneratedPairs) {
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  uint64_t skipped = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    datagen::GeneratorOptions options;
    options.seed = seed;
    options.element_count = 60;
    options.domain = domains[seed % 4];
    const xsd::Schema source = datagen::GenerateSchema(options);
    options.seed = seed + 100;
    options.domain = domains[(seed + 1) % 4];
    const xsd::Schema target = datagen::GenerateSchema(options);
    // Small enough to compare every pair with the direct matcher.
    skipped += CheckSkip(source.Flat().labels, target.Flat().labels, 1,
                         "generated seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
  EXPECT_GT(skipped, 0u);
}

TEST(LabelSkipTest, ExactOnProtein) {
  const xsd::Schema pir = datagen::MakePir();
  const xsd::Schema pdb = datagen::MakePdb();
  const uint64_t skipped =
      CheckSkip(pir.Flat().labels, pdb.Flat().labels, 211, "protein");
  EXPECT_GT(skipped, 0u);
}

TEST(LabelSkipTest, NeverFiresWithNonPositiveThresholds) {
  const xsd::Schema pir = datagen::MakePir();
  const xsd::Schema pdb = datagen::MakePdb();
  NameMatchOptions zero_relaxed;
  zero_relaxed.relaxed_threshold = 0.0;
  NameMatchOptions zero_exact;
  zero_exact.exact_threshold = 0.0;
  for (const NameMatchOptions& options : {zero_relaxed, zero_exact}) {
    const NameMatcher matcher(&DefaultThesaurus(), options);
    const PairwiseLabelScorer scorer(matcher, pir.Flat().labels,
                                     pdb.Flat().labels);
    uint64_t skipped = 0;
    for (size_t i = 0; i < pir.Flat().labels.size(); ++i) {
      for (size_t j = 0; j < pdb.Flat().labels.size(); ++j) {
        (void)scorer.Match(i, j, &skipped);
      }
    }
    EXPECT_EQ(skipped, 0u);
  }
}

TEST(LabelSkipTest, NeverFiresForMentionedLabels) {
  // "PO" and "UOM" are thesaurus terms whose tokens relate to nothing on
  // the other side: without the mentioned rule they would be skipped.
  const std::vector<std::string> source = {"PO", "UOM", "Zqxv"};
  const std::vector<std::string> target = {"Xylophone", "Qwerty", "Zqxv"};
  ASSERT_TRUE(Mentioned("PO"));
  ASSERT_TRUE(Mentioned("UOM"));
  const NameMatcher matcher(&DefaultThesaurus());
  const PairwiseLabelScorer scorer(matcher, source, target);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < target.size(); ++j) {
      uint64_t skipped = 0;
      const LabelMatch got = scorer.Match(i, j, &skipped);
      EXPECT_EQ(skipped, 0u) << source[i] << " vs " << target[j];
      EXPECT_TRUE(SameBits(got, matcher.Match(source[i], target[j])));
    }
  }
  uint64_t skipped = 0;
  (void)scorer.Match(2, 0, &skipped);  // unmentioned, unrelated: skipped
  EXPECT_EQ(skipped, 1u);
}

#if QMATCH_OBS_ENABLED
TEST(LabelSkipTest, KernelCountsSkippedPairs) {
  // lingua.label_pairs_skipped counts the label matrix's skips: one per
  // skipped distinct label pair of the table.
  const xsd::Schema pir = datagen::MakePir();
  const xsd::Schema pdb = datagen::MakePdb();
  const core::QMatch matcher;
  const NameMatcher names(&DefaultThesaurus(), matcher.config().name_options);
  const PairwiseLabelScorer scorer(names, pir.Flat().labels,
                                   pdb.Flat().labels);
  uint64_t expected = 0;
  for (size_t i = 0; i < pir.Flat().labels.size(); ++i) {
    for (size_t j = 0; j < pdb.Flat().labels.size(); ++j) {
      (void)scorer.Match(i, j, &expected);
    }
  }
  obs::Counter& counter =
      obs::Registry::Global().GetCounter("lingua.label_pairs_skipped");
  const uint64_t before = counter.Value();
  (void)matcher.Analyze(pir, pdb);
  EXPECT_EQ(counter.Value() - before, expected);
}
#endif  // QMATCH_OBS_ENABLED

}  // namespace
}  // namespace qmatch::lingua
