#ifndef QMATCH_MATCH_PROPERTY_MATCHER_H_
#define QMATCH_MATCH_PROPERTY_MATCHER_H_

#include <string>
#include <string_view>
#include <vector>

#include "xsd/flatten.h"
#include "xsd/schema.h"

namespace qmatch::match {

/// Qualitative match level of the properties axis (paper Section 2.1):
/// exact = every constituent property matches exactly; relaxed = the
/// consensus of the per-property matches is relaxed (generalization /
/// specialization); none = properties conflict.
enum class PropertyMatchClass { kNone, kRelaxed, kExact };

/// Per-property verdict, exposed for diagnostics and tests.
struct PropertyVerdict {
  std::string property;         // "type", "order", "minOccurs", ...
  PropertyMatchClass cls = PropertyMatchClass::kNone;
};

/// The properties-axis result: class plus the quantitative QoM_P in [0,1]
/// (exact properties score 1, relaxed 1/2, conflicting 0; averaged).
struct PropertyMatch {
  PropertyMatchClass cls = PropertyMatchClass::kNone;
  double score = 0.0;
  std::vector<PropertyVerdict> verdicts;
};

/// Which properties participate in the comparison.
struct PropertyMatchOptions {
  bool compare_kind = true;      // element vs attribute
  bool compare_type = true;
  bool compare_order = true;     // sibling position, when order is semantic
  bool compare_occurs = true;    // minOccurs / maxOccurs
  bool compare_nillable = false; // off by default: rarely set in practice
  double relaxed_credit = 0.5;   // score contribution of a relaxed property
};

/// Compares the property sets of two schema nodes per the paper's rules
/// (and the fuller property list of [Hegde'04]):
///  - type: equal -> exact; generalization/specialization or same numeric
///    family on the XSD type lattice -> relaxed; unrelated -> none.
///  - order: only significant when both parents are <sequence>; equal
///    positions -> exact, different -> relaxed (never a hard conflict).
///  - minOccurs/maxOccurs: equal -> exact; otherwise relaxed (e.g.
///    minOccurs=0 generalizes minOccurs=1, unbounded generalizes bounded).
///  - kind: element vs attribute mismatch -> relaxed.
/// The axis is exact iff all compared properties are exact; none only when
/// a majority-weighted score falls below the relaxed consensus.
///
/// This is MatchPropertyKeys on the two nodes' packed descriptors, plus the
/// verdict list.
PropertyMatch MatchProperties(const xsd::SchemaNode& source,
                              const xsd::SchemaNode& target,
                              const PropertyMatchOptions& options = {});

/// The properties axis of two packed descriptors (the fields of a node
/// MatchProperties reads): the same class and score, with `verdicts` left
/// empty, so a call allocates nothing. The match kernel's property matrix
/// calls this once per distinct descriptor pair.
PropertyMatch MatchPropertyKeys(const xsd::FlatSchema::PropertyKey& source,
                                const xsd::FlatSchema::PropertyKey& target,
                                const PropertyMatchOptions& options = {});

}  // namespace qmatch::match

#endif  // QMATCH_MATCH_PROPERTY_MATCHER_H_
