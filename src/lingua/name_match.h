#ifndef QMATCH_LINGUA_NAME_MATCH_H_
#define QMATCH_LINGUA_NAME_MATCH_H_

#include <string>
#include <string_view>
#include <vector>

#include "lingua/thesaurus.h"

namespace qmatch::lingua {

/// Qualitative classification of a label-axis match (paper Section 2.1):
/// exact = identical string, synonym or ontology hit; relaxed = hypernym,
/// hyponym, acronym or abbreviation (or a strong fuzzy string match).
enum class LabelMatchClass { kNone, kRelaxed, kExact };

/// Result of comparing two labels: the class plus the quantitative score in
/// [0, 1] used as QoM_L. An exact match always scores 1.0.
struct LabelMatch {
  LabelMatchClass cls = LabelMatchClass::kNone;
  double score = 0.0;
};

/// A label pre-processed for repeated comparison: canonical form plus the
/// singularized token list. Matchers prepare each node's label once and
/// compare prepared labels in the O(n·m) pair loop.
struct PreparedLabel {
  std::string canonical;
  std::vector<std::string> tokens;
};

/// Tunable scores for the relation kinds and the classification cut-offs.
struct NameMatchOptions {
  /// Synonyms classify as *exact* per the paper, but score slightly below
  /// identical strings so that an identical-label target outranks a
  /// synonym target instead of tying into ambiguity suppression.
  double synonym_score = 0.97;
  double hypernym_score = 0.80;
  double acronym_score = 0.90;
  double abbreviation_score = 0.90;
  /// Fuzzy token similarity below this floor contributes nothing. Kept
  /// high: string similarity scores well above 0.5 for entirely unrelated
  /// short words, which must not register as label evidence.
  double fuzzy_floor = 0.72;
  /// Token-set score at or above which a match classifies exact (when every
  /// contributing token pair is itself exact-kind).
  double exact_threshold = 0.99;
  /// Token-set score at or above which a match classifies relaxed.
  double relaxed_threshold = 0.45;
};

/// CUPID-style linguistic label matcher.
///
/// Labels are canonicalised (tokenised, singularised), then compared first
/// as whole terms against the thesaurus and second by a bipartite
/// best-token-pair assignment where each token pair scores by thesaurus
/// relation or, for out-of-vocabulary pairs, blended string similarity.
class NameMatcher {
 public:
  /// `thesaurus` may be null (pure string matching); it is borrowed and must
  /// outlive the matcher.
  explicit NameMatcher(const Thesaurus* thesaurus = nullptr,
                       NameMatchOptions options = {})
      : thesaurus_(thesaurus), options_(options) {}

  /// Pre-processes a raw schema label for repeated matching.
  static PreparedLabel Prepare(std::string_view label);

  /// Compares two raw schema labels (prepares both internally).
  LabelMatch Match(std::string_view a, std::string_view b) const;

  /// Hot path: compares two prepared labels.
  LabelMatch Match(const PreparedLabel& a, const PreparedLabel& b) const;

  /// Similarity of two canonical (already singularized) tokens in [0,1].
  /// `exact_kind` is set when the relation is equality or synonymy.
  double TokenSimilarity(const std::string& a, const std::string& b,
                         bool* exact_kind) const;

  const NameMatchOptions& options() const { return options_; }
  const Thesaurus* thesaurus() const { return thesaurus_; }

 private:
  const Thesaurus* thesaurus_;
  NameMatchOptions options_;
};

/// Memoising façade for all-pairs label matching between two node lists.
///
/// Schemas repeat a small token vocabulary across many labels, so the
/// scorer interns every distinct token on each side and caches
/// `TokenSimilarity` per (source token, target token) — turning the
/// O(n·m) label loop's inner work into array lookups.
class PairwiseLabelScorer {
 public:
  /// `matcher` is borrowed and must outlive the scorer.
  PairwiseLabelScorer(const NameMatcher& matcher,
                      const std::vector<std::string>& source_labels,
                      const std::vector<std::string>& target_labels);

  /// Label match of source label #i vs target label #j.
  LabelMatch Match(size_t i, size_t j) const;

  /// Eagerly fills the whole token-similarity cache. After this call
  /// `Match` performs no writes, so concurrent calls from many threads are
  /// safe (the parallel table fill calls this once before fanning out).
  void Precompute();

 private:
  struct InternedLabel {
    std::string canonical;
    std::vector<size_t> token_ids;
    /// Id of `canonical` in a pool shared by both sides, so label equality
    /// is one integer compare in the pair loop.
    size_t canonical_id = 0;
    /// Pre-resolved Thesaurus::MentionedCanonical(canonical): when neither
    /// side of a pair is mentioned, the whole-label thesaurus relation is
    /// provably kNone and Match skips the lookup entirely.
    bool mentioned = false;
  };

  double CachedTokenSimilarity(size_t source_token, size_t target_token,
                               bool* exact_kind) const;

  const NameMatcher& matcher_;
  std::vector<InternedLabel> source_;
  std::vector<InternedLabel> target_;
  std::vector<std::string> source_tokens_;
  std::vector<std::string> target_tokens_;
  // (source token id * |target tokens| + target token id) -> score; < 0
  // means "not yet computed". Sign bit of the companion byte is exactness.
  mutable std::vector<double> token_sim_cache_;
  mutable std::vector<signed char> token_exact_cache_;
};

}  // namespace qmatch::lingua

#endif  // QMATCH_LINGUA_NAME_MATCH_H_
