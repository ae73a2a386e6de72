#include "match/instance_matcher.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "common/string_util.h"
#include "match/assignment.h"
#include "match/structural_matcher.h"

namespace qmatch::match {

namespace {

/// Observed values per schema leaf node.
using ValueTable = std::map<const xsd::SchemaNode*, std::vector<std::string>>;

void CollectValues(const xml::XmlElement& element, const xsd::SchemaNode& decl,
                   size_t cap, ValueTable& out) {
  // Attribute children.
  for (const auto& child : decl.children()) {
    if (child->kind() != xsd::NodeKind::kAttribute) continue;
    if (const std::string* value = element.FindAttribute(child->label())) {
      std::vector<std::string>& values = out[child.get()];
      if (values.size() < cap) values.push_back(std::string(Trim(*value)));
    }
  }
  if (decl.IsLeaf()) {
    std::vector<std::string>& values = out[&decl];
    if (values.size() < cap) {
      values.push_back(std::string(Trim(element.InnerText())));
    }
    return;
  }
  // Element children, matched by name.
  for (const xml::XmlElement* child_el : element.ChildElements()) {
    for (const auto& child_decl : decl.children()) {
      if (child_decl->kind() == xsd::NodeKind::kElement &&
          child_decl->label() == child_el->LocalName()) {
        CollectValues(*child_el, *child_decl, cap, out);
        break;
      }
    }
  }
}

ValueTable CollectFromDocuments(
    const std::vector<const xml::XmlDocument*>& docs,
    const xsd::Schema& schema, size_t cap) {
  ValueTable table;
  if (schema.root() == nullptr) return table;
  for (const xml::XmlDocument* doc : docs) {
    if (doc == nullptr || doc->root() == nullptr) continue;
    if (doc->root()->LocalName() != schema.root()->label()) continue;
    CollectValues(*doc->root(), *schema.root(), cap, table);
  }
  return table;
}

bool ParseNumeric(std::string_view text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  std::string buffer(text);
  double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  *out = value;
  return true;
}

}  // namespace

double InstanceMatcher::ValueSetSimilarity(const std::vector<std::string>& a,
                                           const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;

  // Normalised-string Jaccard.
  std::set<std::string> sa;
  std::set<std::string> sb;
  for (const std::string& v : a) sa.insert(ToLower(Trim(v)));
  for (const std::string& v : b) sb.insert(ToLower(Trim(v)));
  sa.erase("");
  sb.erase("");
  if (sa.empty() || sb.empty()) return 0.0;
  size_t common = 0;
  for (const std::string& v : sa) common += sb.count(v);
  // Overlap coefficient |A ∩ B| / min(|A|,|B|): the standard value-set
  // measure for instance matching (robust to differently sized samples,
  // where Jaccard systematically under-scores).
  double overlap = static_cast<double>(common) /
                   static_cast<double>(std::min(sa.size(), sb.size()));

  // Numeric range overlap when both sides are fully numeric.
  auto range_of = [](const std::set<std::string>& values, double* lo,
                     double* hi) {
    *lo = 0.0;
    *hi = 0.0;
    bool first = true;
    for (const std::string& v : values) {
      double parsed;
      if (!ParseNumeric(v, &parsed)) return false;
      if (first) {
        *lo = *hi = parsed;
        first = false;
      } else {
        *lo = std::min(*lo, parsed);
        *hi = std::max(*hi, parsed);
      }
    }
    return !first;
  };
  double alo;
  double ahi;
  double blo;
  double bhi;
  double range_similarity = 0.0;
  if (range_of(sa, &alo, &ahi) && range_of(sb, &blo, &bhi)) {
    double inner = std::min(ahi, bhi) - std::max(alo, blo);
    double outer = std::max(ahi, bhi) - std::min(alo, blo);
    if (outer <= 0.0) {
      // Both ranges are single identical points (outer == 0, inner == 0)
      // or disjoint constants.
      range_similarity = (ahi == bhi && alo == blo) ? 1.0 : 0.0;
    } else {
      range_similarity = std::max(0.0, inner / outer);
    }
  }
  return std::max(overlap, range_similarity);
}

SimilarityMatrix InstanceMatcher::Similarity(const xsd::Schema& source,
                                             const xsd::Schema& target) const {
  const xsd::FlatSchema& src = source.Flat();
  const xsd::FlatSchema& tgt = target.Flat();
  SimilarityMatrix matrix(src.nodes, tgt.nodes);
  if (matrix.empty()) return matrix;

  ValueTable source_values = CollectFromDocuments(
      source_docs_, source, options_.max_values_per_leaf);
  ValueTable target_values = CollectFromDocuments(
      target_docs_, target, options_.max_values_per_leaf);
  static const std::vector<std::string> kNoValues;
  auto values_for = [](const ValueTable& table, const xsd::SchemaNode* node)
      -> const std::vector<std::string>& {
    auto it = table.find(node);
    return it == table.end() ? kNoValues : it->second;
  };

  // Leaf pairs score their value overlap; inner pairs the linked-leaf
  // fraction (the structural matcher's recurrence, with instance links).
  const size_t n = src.size();
  const size_t m = tgt.size();
  for (size_t i = 0; i < n; ++i) {
    if (!src.IsLeaf(i)) continue;
    for (size_t j = 0; j < m; ++j) {
      if (!tgt.IsLeaf(j)) continue;
      matrix.set(i, j,
                 ValueSetSimilarity(values_for(source_values, src.nodes[i]),
                                    values_for(target_values, tgt.nodes[j])));
    }
  }
  const std::vector<double> fraction =
      LinkedLeafFractions(src, tgt, [&](size_t i, size_t j) {
        return matrix.at(i, j) >= options_.leaf_link_threshold;
      });
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (src.IsLeaf(i) && tgt.IsLeaf(j)) continue;
      // A leaf compared against a whole subtree must not outrank the
      // direct leaf-to-leaf pair inside that subtree.
      const double scale = src.IsLeaf(i) != tgt.IsLeaf(j) ? 0.5 : 1.0;
      matrix.set(i, j, fraction[i * m + j] * scale);
    }
  }
  return matrix;
}

MatchResult InstanceMatcher::Match(const xsd::Schema& source,
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
