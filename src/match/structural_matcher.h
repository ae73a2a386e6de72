#ifndef QMATCH_MATCH_STRUCTURAL_MATCHER_H_
#define QMATCH_MATCH_STRUCTURAL_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "match/matcher.h"
#include "xsd/flatten.h"

namespace qmatch::match {

/// The pure structural baseline of Section 5, modelled on CUPID's
/// structural phase with the linguistic seeding removed.
///
/// Leaves are compared by their intrinsic structure — node kind, datatype
/// (on the XSD lattice) and occurrence constraints — and two leaves whose
/// similarity clears `leaf_link_threshold` are *strongly linked*. An inner
/// node pair's similarity is the Dice coefficient of strongly linked leaf
/// pairs across their subtrees, blended with local shape features (child
/// count and subtree height). Labels are never consulted, so the matcher
/// scores high on structurally identical but linguistically disjoint
/// schemas (paper Figure 9) and low on the reverse.
class StructuralMatcher : public Matcher {
 public:
  struct Options {
    /// Correspondence cut-off on the pair similarity.
    double threshold = 0.5;
    /// Leaf-pair similarity required to create a strong link. Set above
    /// the 0.7 baseline that same-kind/same-occurs leaves of unrelated
    /// types score, so links carry type evidence.
    double leaf_link_threshold = 0.75;
    /// Suppress a mapping when the runner-up target scores within this
    /// margin of the best (ambiguity, endemic to label-blind matching).
    double ambiguity_margin = 0.02;
    /// Weight of the subtree (leaf-link) component vs local shape features.
    double subtree_weight = 0.75;
  };

  StructuralMatcher() : StructuralMatcher(Options()) {}
  explicit StructuralMatcher(Options options) : options_(options) {}

  std::string_view name() const override { return "structural"; }

  MatchResult Match(const xsd::Schema& source,
                    const xsd::Schema& target) const override;

  /// Pure structural pair similarity (leaf links + local shape blend).
  SimilarityMatrix Similarity(const xsd::Schema& source,
                              const xsd::Schema& target) const override;

  /// Structural similarity of two leaf nodes in [0,1] (exposed for tests):
  /// 0.5·type + 0.25·kind + 0.25·occurs component.
  static double LeafSimilarity(const xsd::SchemaNode& s,
                               const xsd::SchemaNode& t);

  /// LeafSimilarity for every (source, target) pair of distinct property
  /// keys, row-major (`[source prop_id * target key count + target
  /// prop_id]`), scored once per pair through the `prop_rep` nodes. Exact:
  /// a PropertyKey holds every field LeafSimilarity reads.
  static std::vector<double> LeafSimilarityByKey(const xsd::FlatSchema& s,
                                                 const xsd::FlatSchema& t);

 private:
  Options options_;
};

/// CUPID's linked-leaf fraction for every (source node, target node) pair
/// of two flattened schemas, row-major in preorder:
///
///   (linked_src + linked_tgt) / (leaves_s + leaves_t)
///
/// where linked_src counts the leaves under source node i that are
/// strongly linked to some leaf under target node j, linked_tgt the
/// converse, and leaves_* are the subtree leaf counts. `leaf_linked(i, j)`
/// says whether source leaf i and target leaf j are strongly linked; it is
/// called once per leaf pair. A leaf × leaf cell holds that link (0 or 1),
/// which callers replace by their own leaf score. The structural, CUPID
/// and instance baselines all score inner pairs with this one recurrence.
template <typename LeafLinked>
std::vector<double> LinkedLeafFractions(const xsd::FlatSchema& source,
                                        const xsd::FlatSchema& target,
                                        LeafLinked leaf_linked) {
  // Subtree leaf counts; reverse preorder visits children first.
  auto leaf_counts = [](const xsd::FlatSchema& flat) {
    std::vector<uint32_t> count(flat.size(), 0);
    for (size_t i = flat.size(); i-- > 0;) {
      if (flat.IsLeaf(i)) count[i] = 1;
      for (uint32_t k = flat.child_begin[i]; k < flat.child_begin[i + 1];
           ++k) {
        count[i] += count[flat.child_index[k]];
      }
    }
    return count;
  };
  const std::vector<uint32_t> leaves_s = leaf_counts(source);
  const std::vector<uint32_t> leaves_t = leaf_counts(target);

  const size_t n = source.size();
  const size_t m = target.size();
  std::vector<uint32_t> linked_src(n * m, 0);
  std::vector<uint32_t> linked_tgt(n * m, 0);
  std::vector<double> fraction(n * m, 0.0);
  for (size_t i = n; i-- > 0;) {
    const uint32_t s_begin = source.child_begin[i];
    const uint32_t s_end = source.child_begin[i + 1];
    for (size_t j = m; j-- > 0;) {
      const uint32_t t_begin = target.child_begin[j];
      const uint32_t t_end = target.child_begin[j + 1];
      const size_t at = i * m + j;
      if (source.IsLeaf(i) && target.IsLeaf(j)) {
        const uint32_t linked = leaf_linked(i, j) ? 1 : 0;
        linked_src[at] = linked;
        linked_tgt[at] = linked;
      } else if (source.IsLeaf(i)) {
        // One source leaf vs a target subtree: linked iff linked into any
        // target child subtree; the target-side count sums over children.
        uint32_t any = 0;
        uint32_t sum = 0;
        for (uint32_t k = t_begin; k < t_end; ++k) {
          const size_t child = i * m + target.child_index[k];
          any |= linked_src[child] > 0 ? 1u : 0u;
          sum += linked_tgt[child];
        }
        linked_src[at] = any;
        linked_tgt[at] = sum;
      } else if (target.IsLeaf(j)) {
        uint32_t any = 0;
        uint32_t sum = 0;
        for (uint32_t k = s_begin; k < s_end; ++k) {
          const size_t child = source.child_index[k] * m + j;
          any |= linked_tgt[child] > 0 ? 1u : 0u;
          sum += linked_src[child];
        }
        linked_tgt[at] = any;
        linked_src[at] = sum;
      } else {
        for (uint32_t k = s_begin; k < s_end; ++k) {
          linked_src[at] += linked_src[source.child_index[k] * m + j];
        }
        for (uint32_t k = t_begin; k < t_end; ++k) {
          linked_tgt[at] += linked_tgt[i * m + target.child_index[k]];
        }
      }
      fraction[at] = static_cast<double>(linked_src[at] + linked_tgt[at]) /
                     static_cast<double>(leaves_s[i] + leaves_t[j]);
    }
  }
  return fraction;
}

}  // namespace qmatch::match

#endif  // QMATCH_MATCH_STRUCTURAL_MATCHER_H_
