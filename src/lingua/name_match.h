#ifndef QMATCH_LINGUA_NAME_MATCH_H_
#define QMATCH_LINGUA_NAME_MATCH_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
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

/// A memo of NameMatcher::TokenSimilarity over ordered (source token,
/// target token) pairs of canonical tokens, owned by one NameMatcher and so
/// valid for exactly its (thesaurus, options) pair. PairwiseLabelScorer
/// reads it and scores only the pairs it has never seen; each entry is the
/// return value of that same pure call, so a warm scorer is bit-identical
/// to a cold one.
///
/// Tokens intern to ids in an append-only vocabulary. Per source-token row
/// it keeps a "scored" bitset over target ids plus the list of the row's
/// nonzero (id, score, exact) entries: over 99% of token pairs score zero,
/// and each of those costs one bit. The memo clears itself when the
/// thesaurus's RelationCount() differs from the value it was filled under,
/// and when the vocabulary would pass kMaxTokens (at most 8 MiB of scored
/// bits). Reads take a shared lock, publishing an exclusive one. A copy
/// starts empty.
class TokenMemo {
 public:
  static constexpr size_t kMaxTokens = 8192;

  TokenMemo() = default;
  TokenMemo(const TokenMemo&) {}
  TokenMemo& operator=(const TokenMemo&);

  /// Fills the remembered cells of the row-major |source| x |target| tables
  /// `sim` and `exact` and clears their `unscored` flags (the caller sets
  /// every flag beforehand). Returns the number of cells filled.
  uint64_t Read(const std::vector<std::string>& source,
                const std::vector<std::string>& target, size_t relation_count,
                double* sim, uint8_t* exact, uint8_t* unscored) const;

  /// Remembers every cell whose `scored` flag is set. Returns true when the
  /// memo cleared itself first.
  bool Publish(const std::vector<std::string>& source,
               const std::vector<std::string>& target, size_t relation_count,
               const double* sim, const uint8_t* exact,
               const uint8_t* scored);

 private:
  static constexpr uint32_t kNoId = UINT32_MAX;

  struct Entry {
    uint32_t target = 0;
    uint8_t exact = 0;
    double score = 0.0;
  };
  struct Row {
    std::vector<uint64_t> scored;  // bit t: pair (row, target id t) known
    std::vector<Entry> nonzero;
  };

  uint32_t Find(const std::string& token) const;
  /// Interns every token of both lists; false when the vocabulary would
  /// pass kMaxTokens.
  bool InternAll(const std::vector<std::string>& source,
                 const std::vector<std::string>& target,
                 std::vector<uint32_t>& source_ids,
                 std::vector<uint32_t>& target_ids);
  void Clear();

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<Row> rows_;  // by source token id
  size_t relation_count_ = 0;
};

/// CUPID-style linguistic label matcher.
///
/// Labels are canonicalised (tokenised, singularised), then compared first
/// as whole terms against the thesaurus and second by a bipartite
/// best-token-pair assignment where each token pair scores by thesaurus
/// relation or, for out-of-vocabulary pairs, blended string similarity.
///
/// The matcher owns a TokenMemo, so every PairwiseLabelScorer built over it
/// scores each token pair once for the matcher's lifetime. Const calls are
/// safe from many threads at once.
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
  friend class PairwiseLabelScorer;

  const Thesaurus* thesaurus_;
  NameMatchOptions options_;
  mutable TokenMemo memo_;
};

/// Precomputing façade for all-pairs label matching between two label lists.
///
/// Schemas repeat a small token vocabulary across many labels, so the
/// scorer interns every distinct token on each side and looks every
/// (source token, target token) pair up once, up front — turning the O(n·m)
/// label loop's inner work into array lookups. Pairs the matcher's
/// TokenMemo holds are copied from it; only the others are scored, and
/// then published to the memo.
///
/// Most label pairs share no related token at all, and those provably
/// score {kNone, 0.0}. The scorer keeps one bitset per source label over the
/// target token vocabulary (bit t set when target token t has nonzero
/// similarity to one of the label's tokens), and `Match` returns such pairs
/// without scoring them: an exact, lossless filter.
class PairwiseLabelScorer {
 public:
  /// `matcher` is borrowed and must outlive the scorer. The token-similarity
  /// table is filled here, the unmemoised slots on `pool` when one with
  /// workers is given: each slot is a pure function of its token pair, so
  /// the table is bit-identical for any worker count and any memo state.
  /// Afterwards `Match` only reads, so concurrent calls from many threads
  /// are safe.
  PairwiseLabelScorer(const NameMatcher& matcher,
                      const std::vector<std::string>& source_labels,
                      const std::vector<std::string>& target_labels,
                      ThreadPool* pool = nullptr);

  /// Label match of source label #i vs target label #j — bit-identical to
  /// NameMatcher::Match on the two labels. When the pair is skipped as a
  /// provable {kNone, 0.0} and `skipped` is non-null, `*skipped` is
  /// incremented (the caller sums and publishes the count).
  LabelMatch Match(size_t i, size_t j, uint64_t* skipped = nullptr) const;

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

  /// True when some token of target label `b` has nonzero similarity to a
  /// token of source label #i (the skip bitset test).
  bool Related(size_t i, const InternedLabel& b) const;

  const NameMatcher& matcher_;
  std::vector<InternedLabel> source_;
  std::vector<InternedLabel> target_;
  std::vector<std::string> source_tokens_;
  std::vector<std::string> target_tokens_;
  // (source token id * |target tokens| + target token id) -> similarity and
  // exact-kind flag (equality or synonymy).
  std::vector<double> token_sim_;
  std::vector<uint8_t> token_exact_;
  /// Skip bitsets: words_ 64-bit words per source label, bit t of label i
  /// set when target token t relates to one of label i's tokens.
  size_t words_ = 0;
  std::vector<uint64_t> related_;
  /// The skip is exact only while a 0.0 token-set score classifies kNone,
  /// i.e. both classification thresholds are positive.
  bool skip_enabled_ = false;
};

}  // namespace qmatch::lingua

#endif  // QMATCH_LINGUA_NAME_MATCH_H_
