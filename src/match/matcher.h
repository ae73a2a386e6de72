#ifndef QMATCH_MATCH_MATCHER_H_
#define QMATCH_MATCH_MATCHER_H_

#include <string>
#include <string_view>
#include <vector>

#include "match/similarity_matrix.h"
#include "xsd/schema.h"

namespace qmatch {

/// Degradation level a match result was computed at. Under overload the
/// engine walks a ladder from the full hybrid QoM down to the cheap axes
/// only; results carry their mode so callers (and goldens) can tell a
/// degraded answer from a full one.
enum class MatchMode {
  /// Full QoM per Eq. 1: label + properties + level + recursive children.
  kFull = 0,
  /// Children axis evaluated only above a depth cap; deeper subtrees score
  /// as leaves. Cheaper than full, structurally aware near the root.
  kCappedDepth = 1,
  /// Children axis skipped entirely; the remaining label/property/level
  /// weights are renormalized per Eq. 6/7 (CUPID-style structural-free
  /// matching as the last rung before shedding).
  kLabelOnly = 2,
};

/// Canonical lower-case name of a match mode ("full", "capped-depth",
/// "label-only").
std::string_view MatchModeName(MatchMode mode);

/// One discovered node-to-node match: a source node, the target node it was
/// mapped to, and the algorithm's confidence/QoM score in [0, 1].
struct Correspondence {
  const xsd::SchemaNode* source = nullptr;
  const xsd::SchemaNode* target = nullptr;
  double score = 0.0;
};

/// The output of a match algorithm over two schemas: the schema-level QoM
/// (the paper's "total match value ... presented to the user") plus the set
/// of node correspondences above the algorithm's threshold — the set `P`
/// scored against the manually determined real matches `R` in Section 5.
struct MatchResult {
  std::string algorithm;
  double schema_qom = 0.0;
  std::vector<Correspondence> correspondences;

  /// Degradation level this result was computed at. kFull unless the
  /// producer explicitly degraded (overload ladder or forced mode).
  MatchMode mode = MatchMode::kFull;

  /// True if a correspondence with these endpoint paths was returned.
  bool Contains(std::string_view source_path,
                std::string_view target_path) const;

  /// The score of the correspondence for `source_path`, or 0 when unmapped.
  double ScoreFor(std::string_view source_path) const;

  /// Human-readable listing, sorted by descending score.
  std::string ToString() const;
};

/// Abstract schema match algorithm. Implementations: LinguisticMatcher,
/// StructuralMatcher, CupidMatcher, CompositeMatcher and core::QMatch (the
/// paper's hybrid).
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Algorithm display name ("linguistic", "structural", "hybrid", ...).
  virtual std::string_view name() const = 0;

  /// Matches `source` against `target`. Both schemas must outlive the
  /// returned result (correspondences point into their trees).
  virtual MatchResult Match(const xsd::Schema& source,
                            const xsd::Schema& target) const = 0;

  /// The full pairwise similarity matrix this algorithm scores from,
  /// *before* mapping selection (thresholds, ambiguity suppression,
  /// evidence gates). This is the representation COMA-style composition
  /// aggregates. Rows and columns are the schemas' preorder
  /// (`Schema::Flat().nodes`). Both schemas must outlive the returned
  /// matrix, and a schema whose nodes were mutated in place must be
  /// `Finalize`d before it is matched again: matchers read the cached
  /// `Schema::Flat()` projection, which Finalize refreshes.
  virtual match::SimilarityMatrix Similarity(
      const xsd::Schema& source, const xsd::Schema& target) const = 0;
};

}  // namespace qmatch

#endif  // QMATCH_MATCH_MATCHER_H_
