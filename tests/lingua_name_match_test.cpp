// Unit and property tests for the CUPID-style name matcher and the
// pairwise scorer's sparse join, against the dense matcher as the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
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

// --- The sparse join ---------------------------------------------------------

bool SameBits(const LabelMatch& a, const LabelMatch& b) {
  return a.cls == b.cls &&
         std::bit_cast<uint64_t>(a.score) == std::bit_cast<uint64_t>(b.score);
}

bool Mentioned(const std::string& label) {
  return DefaultThesaurus().MentionedCanonical(
      NameMatcher::Prepare(label).canonical);
}

/// The oracle: every pair of `source` x `target` read from the scorer —
/// through `Match` and through the sparse rows plus the background — equals
/// the dense NameMatcher::Match on the prepared labels, bit for bit. The
/// source rows are split over four threads. Returns the number of
/// candidates the scorer scored.
size_t ExpectSparseEqualsDense(const NameMatcher& matcher,
                               const std::vector<std::string>& source,
                               const std::vector<std::string>& target,
                               const std::string& context) {
  const PairwiseLabelScorer scorer(matcher, source, target);
  std::vector<PreparedLabel> prepared_target;
  for (const std::string& label : target) {
    prepared_target.push_back(NameMatcher::Prepare(label));
  }
  constexpr size_t kThreads = 4;
  std::vector<std::string> mismatch(kThreads);  // first one per thread
  auto check_rows = [&](size_t first) {
    std::vector<LabelMatch> row(target.size());
    for (size_t i = first; i < source.size(); i += kThreads) {
      const PreparedLabel a = NameMatcher::Prepare(source[i]);
      std::fill(row.begin(), row.end(), scorer.background());
      const std::vector<PairwiseLabelScorer::Scored>& sparse = scorer.Row(i);
      for (size_t k = 0; k < sparse.size(); ++k) {
        if (k > 0 && sparse[k].target <= sparse[k - 1].target) {
          mismatch[first] = "row of " + source[i] + " is not ascending";
          return;
        }
        row[sparse[k].target] = sparse[k].match;
      }
      for (size_t j = 0; j < target.size(); ++j) {
        const LabelMatch want = matcher.Match(a, prepared_target[j]);
        if (!SameBits(scorer.Match(i, j), want) || !SameBits(row[j], want)) {
          mismatch[first] = source[i] + " vs " + target[j] + ": scored " +
                            std::to_string(scorer.Match(i, j).score) +
                            ", dense " + std::to_string(want.score);
          return;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) threads.emplace_back(check_rows, w);
  for (std::thread& thread : threads) thread.join();
  for (const std::string& message : mismatch) {
    EXPECT_TRUE(message.empty()) << context << ": " << message;
  }
  return scorer.scored();
}

std::vector<std::string> CorpusLabels() {
  std::set<std::string> labels;
  for (const datagen::CorpusEntry& entry : datagen::Corpus()) {
    const xsd::Schema schema = entry.make();
    labels.insert(schema.Flat().labels.begin(), schema.Flat().labels.end());
  }
  return {labels.begin(), labels.end()};
}

TEST(SparseJoinTest, ExactOverEveryCorpusLabelPair) {
  // Every distinct label of the paper corpus against every other, PDB
  // included, so both directions of every pair.
  const std::vector<std::string> all = CorpusLabels();
  const NameMatcher matcher(&DefaultThesaurus());
  const size_t scored = ExpectSparseEqualsDense(matcher, all, all, "corpus");
  EXPECT_LT(scored, all.size() * all.size() / 10) << "the join is sparse";
}

TEST(SparseJoinTest, ExactOnSeededGeneratedPairs) {
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  const NameMatcher matcher(&DefaultThesaurus());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    datagen::GeneratorOptions options;
    options.seed = seed;
    options.element_count = 60;
    options.domain = domains[seed % 4];
    const xsd::Schema source = datagen::GenerateSchema(options);
    options.seed = seed + 100;
    options.domain = domains[(seed + 1) % 4];
    const xsd::Schema target = datagen::GenerateSchema(options);
    const std::string context = "generated seed " + std::to_string(seed);
    ExpectSparseEqualsDense(matcher, source.Flat().labels,
                            target.Flat().labels, context);
    ExpectSparseEqualsDense(matcher, target.Flat().labels,
                            source.Flat().labels, context + " reversed");
    if (HasFailure()) return;
  }
}

TEST(SparseJoinTest, ExactOnProtein) {
  const xsd::Schema pir = datagen::MakePir();
  const xsd::Schema pdb = datagen::MakePdb();
  const NameMatcher matcher(&DefaultThesaurus());
  const size_t scored = ExpectSparseEqualsDense(
      matcher, pir.Flat().labels, pdb.Flat().labels, "protein");
  EXPECT_LT(scored, pir.Flat().labels.size() * pdb.Flat().labels.size() / 10);
}

TEST(SparseJoinTest, ExactPastTheMemoCap) {
  // A label list whose own vocabulary passes TokenMemo::kMaxTokens is
  // resolved outside the memo; a second one then fits only after a clear.
  // Distinct letter-only tokens ("q" + four consonants), two per label.
  auto token = [](size_t k) {
    static const char kLetters[] = "bcdfghjklmnpqrtvwxz";
    std::string out = "q";
    for (size_t digit = 0; digit < 4; ++digit, k /= sizeof(kLetters) - 1) {
      out += kLetters[k % (sizeof(kLetters) - 1)];
    }
    return out;
  };
  std::vector<std::string> source;
  for (size_t k = 0; k < TokenMemo::kMaxTokens + 64; k += 2) {
    source.push_back(token(k) + "_" + token(k + 1));
  }
  source.push_back("ShipToAddress");
  source.push_back("UOM");
  const std::vector<std::string> target = {"Address", "UnitOfMeasure",
                                           token(7), "Price", "PO"};
  const NameMatcher matcher(&DefaultThesaurus());
  ExpectSparseEqualsDense(matcher, source, target, "past the cap");
  ExpectSparseEqualsDense(matcher, target, source, "past the cap, reversed");
  ExpectSparseEqualsDense(matcher, target, target, "after the cap");
}

TEST(SparseJoinTest, ExactAtNonPositiveThresholds) {
  // With relaxed_threshold <= 0 a pair with no related token is
  // {kRelaxed, +0.0}, not {kNone, +0.0}; labels without tokens stay kNone.
  std::vector<std::string> source = {"OrderNo", "", "__", "UOM", "Zqxv"};
  std::vector<std::string> target = {"PurchaseOrderNumber", "--", "Zqxv",
                                     "UnitOfMeasure", "Xylophone", ""};
  const xsd::Schema pir = datagen::MakePir();
  source.insert(source.end(), pir.Flat().labels.begin(),
                pir.Flat().labels.begin() + 40);
  target.insert(target.end(), pir.Flat().labels.begin() + 20,
                pir.Flat().labels.end());
  NameMatchOptions zero_relaxed;
  zero_relaxed.relaxed_threshold = 0.0;
  NameMatchOptions negative_relaxed;
  negative_relaxed.relaxed_threshold = -0.5;
  NameMatchOptions zero_exact;
  zero_exact.exact_threshold = 0.0;
  for (const NameMatchOptions& options :
       {zero_relaxed, negative_relaxed, zero_exact}) {
    const NameMatcher matcher(&DefaultThesaurus(), options);
    ExpectSparseEqualsDense(matcher, source, target, "thresholds");
    ExpectSparseEqualsDense(matcher, target, source, "thresholds, reversed");
  }
  const NameMatcher zero(&DefaultThesaurus(), zero_relaxed);
  const PairwiseLabelScorer scorer(zero, source, target);
  EXPECT_EQ(scorer.background().cls, LabelMatchClass::kRelaxed);
  EXPECT_TRUE(SameBits(scorer.Match(1, 0), LabelMatch{}));  // "" vs any
}

TEST(SparseJoinTest, ExactForMentionedOnlyLabels) {
  // "PO" and "UOM" are thesaurus terms whose tokens relate to nothing on
  // the other side: they match "PurchaseOrder" and "UnitOfMeasure" only
  // through the thesaurus, found from the short form's relations (forward)
  // or from the target's (reverse), and are not scored against anything
  // else.
  const std::vector<std::string> source = {"PO", "UOM", "Zqxv",
                                           "UnitOfMeasure"};
  const std::vector<std::string> target = {"Xylophone", "PurchaseOrder",
                                           "UnitOfMeasure", "Zqxv", "UOM"};
  ASSERT_TRUE(Mentioned("PO"));
  ASSERT_TRUE(Mentioned("UOM"));
  const NameMatcher matcher(&DefaultThesaurus());
  ExpectSparseEqualsDense(matcher, source, target, "mentioned");
  ExpectSparseEqualsDense(matcher, target, source, "mentioned, reversed");
  const PairwiseLabelScorer scorer(matcher, source, target);
  EXPECT_NE(scorer.Match(0, 1).cls, LabelMatchClass::kNone);  // PO
  EXPECT_NE(scorer.Match(1, 2).cls, LabelMatchClass::kNone);  // UOM
  EXPECT_NE(scorer.Match(3, 4).cls, LabelMatchClass::kNone);  // reverse
  for (size_t i = 0; i < source.size(); ++i) {
    for (const PairwiseLabelScorer::Scored& scored : scorer.Row(i)) {
      EXPECT_NE(scored.target, 0u) << source[i] << " was scored against "
                                   << target[0];
    }
  }
}

#if QMATCH_OBS_ENABLED
TEST(SparseJoinTest, KernelCountsScoredPairs) {
  // lingua.label_pairs_scored counts the candidates the label matrix
  // scored: one per scored distinct label pair of the table.
  const xsd::Schema pir = datagen::MakePir();
  const xsd::Schema pdb = datagen::MakePdb();
  const core::QMatch matcher;
  const NameMatcher names(&DefaultThesaurus(), matcher.config().name_options);
  const PairwiseLabelScorer scorer(names, pir.Flat().labels,
                                   pdb.Flat().labels);
  obs::Counter& counter =
      obs::Registry::Global().GetCounter("lingua.label_pairs_scored");
  const uint64_t before = counter.Value();
  (void)matcher.Analyze(pir, pdb);
  EXPECT_EQ(counter.Value() - before, scorer.scored());
  EXPECT_GT(scorer.scored(), 0u);
}
#endif  // QMATCH_OBS_ENABLED

}  // namespace
}  // namespace qmatch::lingua
