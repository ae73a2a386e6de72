#ifndef QMATCH_XSD_FLATTEN_H_
#define QMATCH_XSD_FLATTEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xsd/schema.h"

namespace qmatch::xsd {

/// Structure-of-arrays projection of one schema tree: everything the match
/// kernel reads, flattened into contiguous preorder-indexed columns (see
/// DESIGN.md §13).
///
/// The projection is *exact* for matching purposes: two nodes with the same
/// label id, property id and level are indistinguishable to the label,
/// property and level axes, and the CSR child ranges reproduce the tree's
/// child iteration order for the children axis. Information the matcher
/// never reads (default/fixed value facets, the choice-vs-all compositor
/// distinction, the schema name) is deliberately not represented;
/// `ReconstructFromFlat` rebuilds a tree carrying exactly the projected
/// information.
///
/// Instances are immutable after construction and borrow the tree's nodes
/// (`nodes[i]`), so a FlatSchema must not outlive its schema's tree.
struct FlatSchema {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  // --- per-node columns, preorder-indexed (0 = root) --------------------
  std::vector<const SchemaNode*> nodes;  // borrowed tree nodes
  std::vector<uint32_t> label_id;        // index into labels
  std::vector<uint32_t> prop_id;         // index into prop_keys
  std::vector<uint32_t> level;           // depth from root (root = 0)
  std::vector<uint32_t> parent;          // preorder index; kNoParent at root

  // --- CSR child ranges --------------------------------------------------
  // Children of node i are child_index[child_begin[i] .. child_begin[i+1])
  // in tree order. Preorder numbering makes every child id > its parent's,
  // and all ids within a range share level[parent]+1.
  std::vector<uint32_t> child_begin;  // size() + 1 entries
  std::vector<uint32_t> child_index;  // size() - 1 entries (all but root)

  // --- interned label table ----------------------------------------------
  // Distinct label strings in first-occurrence (preorder) order; the kernel
  // prepares each one once (canonical string + singularised tokens) instead
  // of once per node.
  std::vector<std::string> labels;

  // --- packed property descriptors ---------------------------------------
  /// Exactly the node fields match::MatchProperties reads — the property
  /// axis is a pure function of a (PropertyKey, PropertyKey) pair, which is
  /// what lets the kernel dedup it to one evaluation per distinct pair.
  struct PropertyKey {
    NodeKind kind = NodeKind::kElement;
    XsdType type = XsdType::kAnyType;
    std::string type_name;
    int order = 0;
    bool ordered = false;
    int occurs_min = 1;
    int occurs_max = 1;
    bool nillable = false;

    friend bool operator==(const PropertyKey&, const PropertyKey&) = default;
    friend auto operator<=>(const PropertyKey&, const PropertyKey&) = default;
  };
  /// Distinct descriptors in first-occurrence (preorder) order.
  std::vector<PropertyKey> prop_keys;
  /// prop_rep[k] = preorder index of the first node carrying prop_keys[k]
  /// (a representative whose SchemaNode realises the descriptor).
  std::vector<uint32_t> prop_rep;

  uint32_t max_level = 0;

  size_t size() const { return nodes.size(); }
  /// True when node i has no children (its CSR range is empty).
  bool IsLeaf(size_t i) const { return child_begin[i] == child_begin[i + 1]; }
};

/// The packed property descriptor of one node: its kind, type, order,
/// occurrence bounds and nillable flag. `type_name` is kept only for kUnknown
/// types, the one case the property axis compares written type names.
FlatSchema::PropertyKey PropertyKeyOf(const SchemaNode& node);

/// Flattens a finalised schema. An empty schema yields an empty FlatSchema.
/// Prefer `Schema::Flat()`, which caches the result on the schema.
FlatSchema BuildFlatSchema(const Schema& schema);

/// Rebuilds a schema tree from the flattened projection: structure, labels,
/// kinds, types, occurrence constraints, nillable flags and (via a
/// sequence/choice compositor choice) the ordered flags. Re-flattening the
/// result reproduces `flat` column for column — the flatten round-trip
/// property the xsd_flatten_test suite checks.
Schema ReconstructFromFlat(const FlatSchema& flat, std::string name);

}  // namespace qmatch::xsd

#endif  // QMATCH_XSD_FLATTEN_H_
