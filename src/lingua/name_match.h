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
/// target token) pairs of canonical tokens, plus every label the matcher has
/// prepared, owned by one NameMatcher and so valid for exactly its
/// (thesaurus, options) pair. PairwiseLabelScorer resolves its labels here
/// and scores only the token pairs the memo has never seen; each entry is
/// the return value of that same pure call, so a warm scorer is
/// bit-identical to a cold one.
///
/// Tokens intern to ids in an append-only vocabulary. Per source-token row
/// it keeps a "scored" bitset over target ids plus the list of the row's
/// nonzero (id, score, exact) entries: over 99% of token pairs score zero,
/// and each of those costs one bit. Each label string is prepared once: its
/// canonical form interned to an id shared by all labels, its tokens as
/// vocabulary ids, and for a thesaurus-mentioned canonical the thesaurus
/// relation of it to each term of Thesaurus::RelatedCanonicals, both ways
/// (an unmentioned canonical relates to nothing, so its list is empty).
/// The memo clears itself when the thesaurus's RelationCount() differs from
/// the value it was filled under, and when the vocabulary would pass
/// kMaxTokens (at most 8 MiB of scored bits) or the labels kMaxLabels. Reads
/// take a shared lock, interning new labels and publishing an exclusive
/// one. A copy starts empty.
class TokenMemo {
 public:
  static constexpr size_t kMaxTokens = 8192;
  static constexpr size_t kMaxLabels = 16384;

  TokenMemo() = default;
  TokenMemo(const TokenMemo&) {}
  TokenMemo& operator=(const TokenMemo&);

  /// A mentioned canonical's thesaurus relation to another canonical:
  /// `to` = RelateCanonical(this, other), `from` = RelateCanonical(other,
  /// this).
  struct Relation {
    uint32_t canonical = 0;
    TermRelation to = TermRelation::kNone;
    TermRelation from = TermRelation::kNone;
  };

  /// One label list, resolved. Side token ids are dense per list.
  struct Side {
    std::vector<uint32_t> canonical;   // per label: canonical id
    std::vector<uint32_t> token_begin; // per label + 1: CSR into `tokens`
    std::vector<uint32_t> tokens;      // side token ids
    std::vector<uint32_t> related_begin;  // per label + 1: CSR into `related`
    std::vector<Relation> related;     // by canonical id, per label
    std::vector<uint32_t> vocabulary;  // side token id -> memo token id
    std::vector<std::string> text;     // side token id -> token, only when
                                       // the table has unscored cells
  };

  /// A scorer's labels and the source-major token-pair table over the two
  /// sides' tokens, remembered cells filled and their `unscored` flags
  /// cleared.
  struct View {
    Side source;
    Side target;
    std::vector<double> sim;
    std::vector<uint8_t> exact;
    std::vector<uint8_t> unscored;
    uint64_t hits = 0;       // cells filled from the memo
    bool cleared = false;    // the memo cleared itself on the way
    bool memoised = true;    // false: the labels alone pass a cap
    uint64_t generation = 0;
  };

  /// Resolves both label lists, preparing the labels it has not seen.
  /// Labels whose own vocabulary passes a cap resolve in a private memo
  /// and are not remembered.
  View Resolve(const Thesaurus* thesaurus,
               const std::vector<std::string>& source,
               const std::vector<std::string>& target);

  /// Remembers the cells of `view`'s table that are still flagged
  /// unscored, which the caller has since scored. A no-op when the memo
  /// cleared after `view` was resolved.
  void Publish(const View& view);

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
  struct Label {
    uint32_t canonical = 0;
    std::vector<uint32_t> tokens;  // memo token ids
  };
  struct Canonical {
    bool resolved = false;  // `related` is set
    /// Sorted by canonical id; empty unless the canonical is mentioned.
    std::vector<Relation> related;
  };

  /// Prepares every label of `labels` not yet cached; false when that
  /// would pass `max_tokens` or `max_labels`.
  bool Intern(const Thesaurus* thesaurus,
              const std::vector<std::string>& labels, size_t max_tokens,
              size_t max_labels);
  uint32_t InternCanonical(const std::string& canonical);
  /// Fills `view` from cached labels; false when one is not cached.
  bool Fill(const std::vector<std::string>& source,
            const std::vector<std::string>& target, View& view) const;
  bool FillSide(const std::vector<std::string>& labels, Side& side,
                std::vector<uint32_t>& side_of) const;
  void Clear();

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<const std::string*> token_text_;  // by id: the key in ids_
  std::vector<Row> rows_;                       // by source token id
  std::unordered_map<std::string, Label> labels_;
  std::unordered_map<std::string, uint32_t> canonical_ids_;
  std::vector<Canonical> canonicals_;
  size_t relation_count_ = 0;
  uint64_t generation_ = 0;  // bumped by every Clear
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

/// All-pairs label matching between two label lists by sparse join: only
/// the pairs that can score are scored.
///
/// A pair of labels scores anything but {background, +0.0} only when their
/// canonicals are equal, when the thesaurus relates the two canonicals, or
/// when some token pair of the two has nonzero similarity: otherwise every
/// best-token score is 0.0, the token-set score is exactly +0.0, and its
/// class is background() — kNone while relaxed_threshold is positive.
/// The constructor enumerates exactly those candidates for each source
/// label: the target labels reached through per-target-token postings from
/// the label's tokens' nonzero token pairs, the target labels with the same
/// canonical, and the thesaurus relation candidates in both directions (the
/// targets whose canonical is in the label's RelatedCanonicals, and the
/// targets whose RelatedCanonicals hold the label's canonical). It scores
/// those and keeps them, sorted by target, as the sparse result.
///
/// Labels are resolved through the matcher's TokenMemo, so each label
/// string is prepared once per matcher, and only the token pairs the memo
/// has never seen are scored, then published to it.
class PairwiseLabelScorer {
 public:
  /// A scored candidate of one source label.
  struct Scored {
    uint32_t target = 0;
    LabelMatch match;
  };

  /// `matcher` is borrowed only for the call. Unmemoised token pairs and
  /// the candidates are scored on `pool` when one with workers is given:
  /// each is a pure function of its pair, so the result is bit-identical
  /// for any worker count and any memo state. Afterwards the scorer only
  /// reads, so concurrent calls from many threads are safe.
  PairwiseLabelScorer(const NameMatcher& matcher,
                      const std::vector<std::string>& source_labels,
                      const std::vector<std::string>& target_labels,
                      ThreadPool* pool = nullptr);

  /// Label match of source label #i vs target label #j — bit-identical to
  /// NameMatcher::Match on the two labels.
  LabelMatch Match(size_t i, size_t j) const;

  /// Source label #i's candidates with their matches, by ascending target.
  const std::vector<Scored>& Row(size_t i) const { return rows_[i]; }

  /// The match of every pair that is not a candidate: score +0.0, class
  /// kNone unless relaxed_threshold <= 0.
  LabelMatch background() const { return background_; }

  /// Number of candidates scored (the sum of the rows' sizes).
  size_t scored() const { return scored_; }

 private:
  std::vector<std::vector<Scored>> rows_;
  LabelMatch background_;
  size_t scored_ = 0;
};

}  // namespace qmatch::lingua

#endif  // QMATCH_LINGUA_NAME_MATCH_H_
