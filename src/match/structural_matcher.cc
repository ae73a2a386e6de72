#include "match/structural_matcher.h"

#include "match/assignment.h"

#include <algorithm>
#include <vector>

namespace qmatch::match {

namespace {

double TypeSimilarity(const xsd::SchemaNode& s, const xsd::SchemaNode& t) {
  using xsd::TypeRelation;
  using xsd::XsdType;
  if (s.type() == XsdType::kUnknown || t.type() == XsdType::kUnknown) {
    return (s.type() == t.type() && s.type_name() == t.type_name()) ? 1.0
                                                                    : 0.4;
  }
  switch (xsd::CompareTypes(s.type(), t.type())) {
    case TypeRelation::kEqual:
      return 1.0;
    case TypeRelation::kGeneralizes:
    case TypeRelation::kSpecializes:
      return 0.85;
    case TypeRelation::kSameFamily:
      return 0.7;
    case TypeRelation::kUnrelated:
      return 0.4;
  }
  return 0.4;
}

double OccursSimilarity(const xsd::SchemaNode& s, const xsd::SchemaNode& t) {
  double sim = 1.0;
  if (s.occurs().min != t.occurs().min) sim *= 0.8;
  if (s.occurs().max != t.occurs().max) sim *= 0.8;
  return sim;
}

}  // namespace

double StructuralMatcher::LeafSimilarity(const xsd::SchemaNode& s,
                                         const xsd::SchemaNode& t) {
  double kind = s.kind() == t.kind() ? 1.0 : 0.7;
  return 0.5 * TypeSimilarity(s, t) + 0.25 * kind +
         0.25 * OccursSimilarity(s, t);
}

std::vector<double> StructuralMatcher::LeafSimilarityByKey(
    const xsd::FlatSchema& s, const xsd::FlatSchema& t) {
  const size_t keys_t = t.prop_keys.size();
  std::vector<double> sim(s.prop_keys.size() * keys_t);
  for (size_t a = 0; a < s.prop_keys.size(); ++a) {
    for (size_t b = 0; b < keys_t; ++b) {
      sim[a * keys_t + b] =
          LeafSimilarity(*s.nodes[s.prop_rep[a]], *t.nodes[t.prop_rep[b]]);
    }
  }
  return sim;
}

SimilarityMatrix StructuralMatcher::Similarity(const xsd::Schema& source,
                                               const xsd::Schema& target) const {
  const xsd::FlatSchema& src = source.Flat();
  const xsd::FlatSchema& tgt = target.Flat();
  SimilarityMatrix matrix(src.nodes, tgt.nodes);
  if (matrix.empty()) return matrix;
  const size_t n = src.size();
  const size_t m = tgt.size();

  const std::vector<double> leaf_sim = LeafSimilarityByKey(src, tgt);
  const size_t keys_t = tgt.prop_keys.size();
  auto leaf_similarity = [&](size_t i, size_t j) {
    return leaf_sim[src.prop_id[i] * keys_t + tgt.prop_id[j]];
  };
  // CUPID-style structural similarity: the fraction of leaves, on both
  // sides, that are strongly linked to at least one leaf of the other
  // subtree.
  const std::vector<double> ssim =
      LinkedLeafFractions(src, tgt, [&](size_t i, size_t j) {
        return leaf_similarity(i, j) >= options_.leaf_link_threshold;
      });

  // Subtree heights; reverse preorder visits children first.
  auto heights = [](const xsd::FlatSchema& flat) {
    std::vector<size_t> height(flat.size(), 0);
    for (size_t i = flat.size(); i-- > 0;) {
      for (uint32_t k = flat.child_begin[i]; k < flat.child_begin[i + 1];
           ++k) {
        height[i] = std::max(height[i], height[flat.child_index[k]] + 1);
      }
    }
    return height;
  };
  const std::vector<size_t> height_s = heights(src);
  const std::vector<size_t> height_t = heights(tgt);
  auto child_count = [](const xsd::FlatSchema& flat, size_t i) {
    return static_cast<double>(flat.child_begin[i + 1] - flat.child_begin[i]);
  };

  // Pair similarity: linked-leaf fraction + local shape blend.
  for (size_t i = 0; i < n; ++i) {
    const double count_s = child_count(src, i);
    for (size_t j = 0; j < m; ++j) {
      const double count_t = child_count(tgt, j);
      if (count_s == 0.0 && count_t == 0.0) {
        matrix.set(i, j, leaf_similarity(i, j));
        continue;
      }
      double child_sim = std::min(count_s, count_t) /
                         std::max({count_s, count_t, 1.0});
      size_t hs = height_s[i];
      size_t ht = height_t[j];
      double height_gap = static_cast<double>(hs > ht ? hs - ht : ht - hs);
      double height_sim = 1.0 / (1.0 + height_gap);
      double local = 0.5 * child_sim + 0.5 * height_sim;
      matrix.set(i, j, options_.subtree_weight * ssim[i * m + j] +
                           (1.0 - options_.subtree_weight) * local);
    }
  }
  return matrix;
}

MatchResult StructuralMatcher::Match(const xsd::Schema& source,
                                     const xsd::Schema& target) const {
  MatchResult result;
  result.algorithm = std::string(name());
  if (source.root() == nullptr || target.root() == nullptr) return result;

  SimilarityMatrix matrix = Similarity(source, target);
  result.correspondences = SelectFromMatrix(matrix, options_.threshold,
                                            options_.ambiguity_margin);
  result.schema_qom = matrix.MeanBestPerSource();
  return result;
}

}  // namespace qmatch::match
