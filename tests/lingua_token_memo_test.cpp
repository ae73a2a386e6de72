// Token memo tests: a NameMatcher's TokenMemo carries token-pair scores from
// one PairwiseLabelScorer to the next, and a warm matcher must answer bit
// for bit like a fresh one — across a long request sequence, beside a
// matcher with other options, past the vocabulary cap, after a thesaurus
// change and under concurrent Analyze calls.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "match/linguistic_matcher.h"
#include "match/similarity_matrix.h"
#include "obs/obs.h"

namespace qmatch {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameResult(const MatchResult& actual, const MatchResult& expected,
                      const std::string& context) {
  EXPECT_EQ(actual.algorithm, expected.algorithm) << context;
  EXPECT_TRUE(BitEqual(actual.schema_qom, expected.schema_qom)) << context;
  ASSERT_EQ(actual.correspondences.size(), expected.correspondences.size())
      << context;
  for (size_t i = 0; i < actual.correspondences.size(); ++i) {
    const Correspondence& a = actual.correspondences[i];
    const Correspondence& e = expected.correspondences[i];
    EXPECT_EQ(a.source, e.source) << context << " corr #" << i;
    EXPECT_EQ(a.target, e.target) << context << " corr #" << i;
    EXPECT_TRUE(BitEqual(a.score, e.score)) << context << " corr #" << i;
  }
}

void ExpectSameMatrix(const match::SimilarityMatrix& actual,
                      const match::SimilarityMatrix& expected,
                      const std::string& context) {
  ASSERT_TRUE(actual.SameShape(expected)) << context;
  size_t differing = 0;
  for (size_t i = 0; i < actual.source_count(); ++i) {
    for (size_t j = 0; j < actual.target_count(); ++j) {
      if (!BitEqual(actual.at(i, j), expected.at(i, j))) ++differing;
    }
  }
  EXPECT_EQ(differing, 0u) << context;
}

/// The request sequence of a long-lived matcher: every corpus schema
/// against PIR and PDB (self-pairs aside), then every paper task in both
/// directions.
class RequestSequence {
 public:
  RequestSequence() {
    for (const datagen::CorpusEntry& entry : datagen::Corpus()) {
      corpus_.push_back(entry.make());
      names_.push_back(entry.name);
    }
    for (const datagen::MatchTask& task : datagen::Tasks()) {
      tasks_.emplace_back(task.source(), task.target());
      task_names_.push_back(task.name);
    }
    for (const char* target : {"PIR", "PDB"}) {
      const size_t t = Index(target);
      for (size_t s = 0; s < corpus_.size(); ++s) {
        if (s == t) continue;
        steps_.push_back({&corpus_[s], &corpus_[t], names_[s] + "->" + target});
      }
    }
    for (size_t k = 0; k < tasks_.size(); ++k) {
      const auto& [source, target] = tasks_[k];
      steps_.push_back({&source, &target, task_names_[k]});
      steps_.push_back({&target, &source, task_names_[k] + " reversed"});
    }
  }

  struct Step {
    const xsd::Schema* source;
    const xsd::Schema* target;
    std::string context;
  };
  const std::vector<Step>& steps() const { return steps_; }

 private:
  size_t Index(const std::string& name) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    ADD_FAILURE() << "no corpus schema " << name;
    return 0;
  }

  std::vector<xsd::Schema> corpus_;
  std::vector<std::string> names_;
  std::vector<std::pair<xsd::Schema, xsd::Schema>> tasks_;
  std::vector<std::string> task_names_;
  std::vector<Step> steps_;
};

// --- (a) a warm matcher equals a fresh one --------------------------------

TEST(TokenMemoTest, WarmQMatchEqualsFreshOverRequestSequence) {
  const RequestSequence sequence;
  const core::QMatch warm;
  for (const RequestSequence::Step& step : sequence.steps()) {
    ExpectSameMatrix(warm.Similarity(*step.source, *step.target),
                     core::QMatch().Similarity(*step.source, *step.target),
                     step.context);
    ExpectSameResult(warm.Match(*step.source, *step.target),
                     core::QMatch().Match(*step.source, *step.target),
                     step.context);
    if (HasFailure()) return;
  }
}

TEST(TokenMemoTest, WarmLinguisticMatcherEqualsFresh) {
  const RequestSequence sequence;
  const lingua::Thesaurus* thesaurus = &lingua::DefaultThesaurus();
  const match::LinguisticMatcher warm(thesaurus);
  for (const RequestSequence::Step& step : sequence.steps()) {
    const xsd::Schema& s = *step.source;
    const xsd::Schema& t = *step.target;
    ExpectSameMatrix(warm.Similarity(s, t),
                     match::LinguisticMatcher(thesaurus).Similarity(s, t),
                     step.context);
    ExpectSameResult(warm.Match(s, t),
                     match::LinguisticMatcher(thesaurus).Match(s, t),
                     step.context);
    if (HasFailure()) return;
  }
}

// --- (b) options are per matcher -------------------------------------------

TEST(TokenMemoTest, NonDefaultOptionsKeepTheirOwnScores) {
  core::QMatchConfig loose;
  loose.name_options.fuzzy_floor = 0.5;
  const core::QMatch warm_default;
  const core::QMatch warm_loose(loose);
  size_t differing_tasks = 0;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    const xsd::Schema source = task.source();
    const xsd::Schema target = task.target();
    for (int direction = 0; direction < 2; ++direction) {
      const xsd::Schema& s = direction == 0 ? source : target;
      const xsd::Schema& t = direction == 0 ? target : source;
      const std::string context =
          task.name + (direction == 0 ? "" : " reversed");
      const match::SimilarityMatrix by_default = warm_default.Similarity(s, t);
      const match::SimilarityMatrix by_loose = warm_loose.Similarity(s, t);
      ExpectSameMatrix(by_default, core::QMatch().Similarity(s, t),
                       context + " default");
      ExpectSameMatrix(by_loose, core::QMatch(loose).Similarity(s, t),
                       context + " fuzzy_floor 0.5");
      ExpectSameResult(warm_loose.Match(s, t), core::QMatch(loose).Match(s, t),
                       context + " fuzzy_floor 0.5");
      ExpectSameResult(warm_default.Match(s, t), core::QMatch().Match(s, t),
                       context + " default");
      bool differs = false;
      for (size_t i = 0; i < by_default.source_count() && !differs; ++i) {
        for (size_t j = 0; j < by_default.target_count(); ++j) {
          if (!BitEqual(by_default.at(i, j), by_loose.at(i, j))) {
            differs = true;
            break;
          }
        }
      }
      if (differs) ++differing_tasks;
    }
  }
  EXPECT_GT(differing_tasks, 0u) << "the two configurations never differ, "
                                    "so the test shows nothing";
}

// --- (c) the vocabulary cap and the thesaurus-change rule -----------------

/// `count` distinct lower-case tokens, none containing an 's' (so
/// singularization leaves them distinct), starting at index `first`.
std::vector<std::string> SyntheticTokens(size_t first, size_t count) {
  static const char kLetters[] = "bcdfghjklmnpqrtvwxz";
  constexpr size_t kBase = sizeof(kLetters) - 1;
  std::vector<std::string> tokens;
  for (size_t k = first; k < first + count; ++k) {
    std::string token = "q";
    for (size_t v = k, digits = 0; digits < 4; v /= kBase, ++digits) {
      token += kLetters[v % kBase];
    }
    tokens.push_back(token);
  }
  return tokens;
}

/// Labels of `per_label` consecutive synthetic tokens each, snake-cased.
std::vector<std::string> SyntheticLabels(size_t first_token, size_t labels,
                                         size_t per_label) {
  const std::vector<std::string> tokens =
      SyntheticTokens(first_token, labels * per_label);
  std::vector<std::string> out;
  for (size_t l = 0; l < labels; ++l) {
    std::string label;
    for (size_t k = 0; k < per_label; ++k) {
      if (k > 0) label += '_';
      label += tokens[l * per_label + k];
    }
    out.push_back(label);
  }
  return out;
}

/// Every `stride`-th pair of the scorer equals NameMatcher::Match on the
/// raw labels, bit for bit.
void ExpectScorerExact(const lingua::NameMatcher& matcher,
                       const std::vector<std::string>& source,
                       const std::vector<std::string>& target, size_t stride,
                       const std::string& context) {
  const lingua::PairwiseLabelScorer scorer(matcher, source, target);
  size_t pair = 0;
  for (size_t i = 0; i < source.size(); ++i) {
    for (size_t j = 0; j < target.size(); ++j, ++pair) {
      if (pair % stride != 0) continue;
      const lingua::LabelMatch got = scorer.Match(i, j);
      const lingua::LabelMatch want = matcher.Match(source[i], target[j]);
      ASSERT_EQ(got.cls, want.cls) << context << ": " << source[i] << " vs "
                                   << target[j];
      ASSERT_TRUE(BitEqual(got.score, want.score))
          << context << ": " << source[i] << " vs " << target[j];
    }
  }
}

#if QMATCH_OBS_ENABLED
uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}
#endif

TEST(TokenMemoTest, VocabularyPastTheCapStaysExact) {
  const lingua::NameMatcher matcher(&lingua::DefaultThesaurus());
  constexpr size_t kCap = lingua::TokenMemo::kMaxTokens;
  // One scorer whose own vocabulary passes the cap, mixed with real words
  // so some pairs relate.
  std::vector<std::string> source = SyntheticLabels(0, kCap / 12 + 20, 12);
  source.push_back("ShipToAddress");
  source.push_back("UnitPrice");
  std::vector<std::string> target = SyntheticLabels(5, 8, 3);
  target.push_back("Address");
  target.push_back("Price");
#if QMATCH_OBS_ENABLED
  const uint64_t clears_before = CounterValue("lingua.token_memo_clears");
#endif
  ExpectScorerExact(matcher, source, target, 7, "past the cap");
  ExpectScorerExact(matcher, source, target, 5, "past the cap, again");
#if QMATCH_OBS_ENABLED
  EXPECT_GE(CounterValue("lingua.token_memo_clears") - clears_before, 2u);
#endif

  // Two scorers that fit alone but not together: the second clears the
  // memo, the first's labels are then scored afresh.
  const std::vector<std::string> half_a = SyntheticLabels(0, kCap / 20, 12);
  const std::vector<std::string> half_b =
      SyntheticLabels(kCap, kCap / 20, 12);
  const std::vector<std::string> small = SyntheticLabels(3, 6, 2);
  const lingua::NameMatcher fresh(&lingua::DefaultThesaurus());
#if QMATCH_OBS_ENABLED
  const uint64_t clears_mid = CounterValue("lingua.token_memo_clears");
#endif
  ExpectScorerExact(fresh, half_a, small, 11, "first half");
  ExpectScorerExact(fresh, half_b, small, 11, "second half");
  ExpectScorerExact(fresh, half_a, small, 3, "first half again");
#if QMATCH_OBS_ENABLED
  EXPECT_GE(CounterValue("lingua.token_memo_clears") - clears_mid, 1u);
#endif
}

#if QMATCH_OBS_ENABLED
TEST(TokenMemoTest, SecondScorerScoresNothing) {
  const xsd::Schema pir = datagen::MakePir();
  const xsd::Schema pdb = datagen::MakePdb();
  const lingua::NameMatcher matcher(&lingua::DefaultThesaurus());
  const lingua::PairwiseLabelScorer first(matcher, pir.Flat().labels,
                                          pdb.Flat().labels);
  const uint64_t scored = CounterValue("lingua.token_pairs_scored");
  const uint64_t hits = CounterValue("lingua.token_pairs_memo_hits");
  const lingua::PairwiseLabelScorer second(matcher, pir.Flat().labels,
                                           pdb.Flat().labels);
  EXPECT_EQ(CounterValue("lingua.token_pairs_scored"), scored);
  EXPECT_GT(CounterValue("lingua.token_pairs_memo_hits"), hits);
  // The reverse direction is a different set of ordered pairs.
  const lingua::PairwiseLabelScorer reversed(matcher, pdb.Flat().labels,
                                             pir.Flat().labels);
  EXPECT_GT(CounterValue("lingua.token_pairs_scored"), scored);
}
#endif

TEST(TokenMemoTest, ThesaurusChangeClearsTheMemo) {
  lingua::Thesaurus thesaurus = lingua::MakeDefaultThesaurus();
  const lingua::NameMatcher matcher(&thesaurus);
  const std::vector<std::string> source = {"Zorbl", "ZorblCode", "Price"};
  const std::vector<std::string> target = {"Quux", "QuuxCode", "Cost"};
  ExpectScorerExact(matcher, source, target, 1, "before");
  const lingua::PairwiseLabelScorer before(matcher, source, target);
  EXPECT_EQ(before.Match(0, 0).cls, lingua::LabelMatchClass::kNone);
#if QMATCH_OBS_ENABLED
  const uint64_t clears = CounterValue("lingua.token_memo_clears");
#endif
  thesaurus.AddSynonym("zorbl", "quux");
  ExpectScorerExact(matcher, source, target, 1, "after");
  const lingua::PairwiseLabelScorer after(matcher, source, target);
  EXPECT_EQ(after.Match(0, 0).cls, lingua::LabelMatchClass::kExact);
  EXPECT_NE(after.Match(1, 1).cls, lingua::LabelMatchClass::kNone);
#if QMATCH_OBS_ENABLED
  EXPECT_GT(CounterValue("lingua.token_memo_clears"), clears);
#endif
}

TEST(TokenMemoTest, WarmScorerKeepsExactKind) {
  // With synonyms scoring 1.0, a synonym token pair is the only thing that
  // makes "OrderLine" vs "OrderItem" an exact label match, so a memo that
  // lost a pair's exact-kind flag would classify it relaxed.
  lingua::NameMatchOptions options;
  options.synonym_score = 1.0;
  const lingua::NameMatcher matcher(&lingua::DefaultThesaurus(), options);
  const std::vector<std::string> source = {"OrderLine", "LineNumber"};
  const std::vector<std::string> target = {"OrderItem", "ItemNumber"};
  ExpectScorerExact(matcher, source, target, 1, "cold");
  ExpectScorerExact(matcher, source, target, 1, "warm");
  const lingua::PairwiseLabelScorer warm(matcher, source, target);
  EXPECT_EQ(warm.Match(0, 0).cls, lingua::LabelMatchClass::kExact);
  EXPECT_EQ(warm.Match(1, 1).cls, lingua::LabelMatchClass::kExact);
}

TEST(TokenMemoTest, CopiedMatcherStartsEmptyAndAgrees) {
  const lingua::NameMatcher original(&lingua::DefaultThesaurus());
  const std::vector<std::string> source = {"OrderLine", "ShipTo", "Qty"};
  const std::vector<std::string> target = {"Item", "Address", "Quantity"};
  ExpectScorerExact(original, source, target, 1, "original");
  const lingua::NameMatcher copy = original;  // NOLINT(performance-*)
  ExpectScorerExact(copy, source, target, 1, "copy");
}

// --- (d) concurrent Analyze on one matcher ---------------------------------

TEST(TokenMemoRaceTest, ConcurrentAnalyzeOverOverlappingVocabularies) {
  // A fresh thesaurus, so the racing threads also build its hypernym
  // closures; the reference results use a second, identical copy.
  const lingua::Thesaurus shared_thesaurus = lingua::MakeDefaultThesaurus();
  const lingua::Thesaurus reference_thesaurus = lingua::MakeDefaultThesaurus();
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  std::vector<xsd::Schema> schemas;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    datagen::GeneratorOptions options;
    options.seed = seed;
    options.element_count = 40;
    options.domain = domains[seed % 4];
    schemas.push_back(datagen::GenerateSchema(options));
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t s = 0; s < schemas.size(); ++s) {
    for (size_t t = 0; t < schemas.size(); ++t) pairs.emplace_back(s, t);
  }
  const core::QMatch reference(core::QMatchConfig{}, &reference_thesaurus);
  std::vector<MatchResult> expected;
  for (const auto& [s, t] : pairs) {
    expected.push_back(reference.Match(schemas[s], schemas[t]));
  }

  const core::QMatch shared(core::QMatchConfig{}, &shared_thesaurus);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<MatchResult>> got(
      kThreads, std::vector<MatchResult>(pairs.size()));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Each thread walks the pairs from its own offset, so fills of new
      // token pairs race with reads of published ones.
      for (size_t k = 0; k < pairs.size(); ++k) {
        const size_t p = (k + w * pairs.size() / kThreads) % pairs.size();
        got[w][p] = shared.Analyze(schemas[pairs[p].first],
                                   schemas[pairs[p].second])
                        .TakeResult();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t w = 0; w < kThreads; ++w) {
    for (size_t p = 0; p < pairs.size(); ++p) {
      ExpectSameResult(got[w][p], expected[p],
                       "thread " + std::to_string(w) + " pair " +
                           std::to_string(p));
    }
  }
}

}  // namespace
}  // namespace qmatch
