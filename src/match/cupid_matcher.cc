#include "match/cupid_matcher.h"

#include "match/assignment.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "match/structural_matcher.h"

namespace qmatch::match {

SimilarityMatrix CupidMatcher::Similarity(const xsd::Schema& source,
                                          const xsd::Schema& target) const {
  const xsd::FlatSchema& src = source.Flat();
  const xsd::FlatSchema& tgt = target.Flat();
  SimilarityMatrix matrix(src.nodes, tgt.nodes);
  if (matrix.empty()) return matrix;
  const size_t n = src.size();
  const size_t m = tgt.size();

  // Phase 1: linguistic similarity for every pair — the linguistic
  // baseline's matrix (the same name matcher, default options).
  const SimilarityMatrix lsim = linguistic_.Similarity(source, target);

  // Leaf wsim (datatype compatibility blended with lsim), then the
  // structural pass. `compute` runs the linked-leaf recurrence given the
  // current leaf wsim values and returns the full wsim table.
  const std::vector<double> type_sim =
      StructuralMatcher::LeafSimilarityByKey(src, tgt);
  const size_t keys_t = tgt.prop_keys.size();
  std::vector<double> leaf_wsim(n * m, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (!src.IsLeaf(i)) continue;
    for (size_t j = 0; j < m; ++j) {
      if (!tgt.IsLeaf(j)) continue;
      const double leaf_sim =
          type_sim[src.prop_id[i] * keys_t + tgt.prop_id[j]];
      leaf_wsim[i * m + j] = options_.wstruct * leaf_sim +
                             (1.0 - options_.wstruct) * lsim.at(i, j);
    }
  }

  auto compute = [&]() {
    std::vector<double> wsim =
        LinkedLeafFractions(src, tgt, [&](size_t i, size_t j) {
          return leaf_wsim[i * m + j] >= options_.th_accept;
        });
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) {
        double& value = wsim[i * m + j];
        value = src.IsLeaf(i) && tgt.IsLeaf(j)
                    ? leaf_wsim[i * m + j]
                    : options_.wstruct * value +
                          (1.0 - options_.wstruct) * lsim.at(i, j);
      }
    }
    return wsim;
  };

  std::vector<double> wsim = compute();

  // Mutual reinforcement: leaves under highly similar inner pairs get a
  // boost, then one recompute (the original CUPID iterates). Skipped for
  // very large pair tables, where the leaf-pair sweep would dominate the
  // whole match (CUPID was never run at protein scale in the paper).
  if (n * m <= 100'000) {
    // Preorder numbers each subtree contiguously: node i's subtree is
    // [i, subtree_end[i]).
    auto subtree_ends = [](const xsd::FlatSchema& flat) {
      std::vector<uint32_t> end(flat.size());
      for (size_t i = flat.size(); i-- > 0;) {
        end[i] = flat.IsLeaf(i)
                     ? static_cast<uint32_t>(i + 1)
                     : end[flat.child_index[flat.child_begin[i + 1] - 1]];
      }
      return end;
    };
    const std::vector<uint32_t> end_s = subtree_ends(src);
    const std::vector<uint32_t> end_t = subtree_ends(tgt);
    // Each leaf pair receives the increment at most once, no matter how
    // many similar ancestor pairs cover it (nested high-wsim subtrees
    // would otherwise compound the boost).
    std::vector<bool> boosted(n * m, false);
    bool any_boost = false;
    for (size_t i = 0; i < n; ++i) {
      if (src.IsLeaf(i)) continue;
      for (size_t j = 0; j < m; ++j) {
        if (tgt.IsLeaf(j)) continue;
        if (wsim[i * m + j] < options_.th_high) continue;
        for (size_t li = i; li < end_s[i]; ++li) {
          if (!src.IsLeaf(li)) continue;
          for (size_t lj = j; lj < end_t[j]; ++lj) {
            if (!tgt.IsLeaf(lj)) continue;
            double& value = leaf_wsim[li * m + lj];
            if (value > 0.0 && !boosted[li * m + lj]) {
              boosted[li * m + lj] = true;
              value = std::min(1.0, value + options_.c_inc);
              any_boost = true;
            }
          }
        }
      }
    }
    if (any_boost) wsim = compute();
  }

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      matrix.set(i, j, wsim[i * m + j]);
    }
  }
  return matrix;
}

MatchResult CupidMatcher::Match(const xsd::Schema& source,
                                const xsd::Schema& target) const {
  MatchResult result;
  result.algorithm = std::string(name());
  if (source.root() == nullptr || target.root() == nullptr) return result;

  SimilarityMatrix matrix = Similarity(source, target);
  result.correspondences = SelectFromMatrix(matrix, options_.th_accept,
                                            options_.ambiguity_margin);
  result.schema_qom = matrix.MeanBestPerSource();
  return result;
}

}  // namespace qmatch::match
