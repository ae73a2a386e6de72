#include "match/property_matcher.h"

namespace qmatch::match {

namespace {

using Key = xsd::FlatSchema::PropertyKey;

PropertyMatchClass CompareTypeProperty(const Key& s, const Key& t) {
  using xsd::XsdType;
  // Unknown user-defined types compare by their written names.
  if (s.type == XsdType::kUnknown || t.type == XsdType::kUnknown) {
    return s.type == t.type && !s.type_name.empty() &&
                   s.type_name == t.type_name
               ? PropertyMatchClass::kExact
               : PropertyMatchClass::kNone;
  }
  // By xsd::TypeRelation: equal -> exact; generalizes, specializes and
  // same family -> relaxed; unrelated -> none.
  static_assert(static_cast<int>(xsd::TypeRelation::kUnrelated) == 4);
  static constexpr PropertyMatchClass kByRelation[] = {
      PropertyMatchClass::kExact, PropertyMatchClass::kRelaxed,
      PropertyMatchClass::kRelaxed, PropertyMatchClass::kRelaxed,
      PropertyMatchClass::kNone};
  return kByRelation[static_cast<size_t>(xsd::CompareTypes(s.type, t.type))];
}

PropertyMatchClass CompareOrderProperty(const Key& s, const Key& t) {
  // Order is only a semantic property under <sequence>; when either side
  // is unordered the property is vacuously exact.
  if (!s.ordered || !t.ordered) return PropertyMatchClass::kExact;
  return s.order == t.order ? PropertyMatchClass::kExact
                            : PropertyMatchClass::kRelaxed;
}

PropertyMatchClass CompareScalar(bool equal) {
  return equal ? PropertyMatchClass::kExact : PropertyMatchClass::kRelaxed;
}

/// Calls `visit(name, class)` once per compared property, in verdict order.
template <class Visit>
void CompareEach(const Key& s, const Key& t,
                 const PropertyMatchOptions& options, Visit&& visit) {
  if (options.compare_kind) visit("kind", CompareScalar(s.kind == t.kind));
  if (options.compare_type) visit("type", CompareTypeProperty(s, t));
  if (options.compare_order) visit("order", CompareOrderProperty(s, t));
  if (options.compare_occurs) {
    visit("minOccurs", CompareScalar(s.occurs_min == t.occurs_min));
    visit("maxOccurs", CompareScalar(s.occurs_max == t.occurs_max));
  }
  if (options.compare_nillable) {
    visit("nillable", CompareScalar(s.nillable == t.nillable));
  }
}

}  // namespace

PropertyMatch MatchPropertyKeys(const Key& source, const Key& target,
                                const PropertyMatchOptions& options) {
  // Compared properties per class, indexed by PropertyMatchClass (kNone,
  // kRelaxed, kExact): an index, not a branch, per property.
  size_t count[3] = {0, 0, 0};
  CompareEach(source, target, options,
              [&](std::string_view /*name*/, PropertyMatchClass cls) {
                ++count[static_cast<size_t>(cls)];
              });
  const size_t none = count[0];
  const size_t relaxed = count[1];
  const size_t exact = count[2];

  PropertyMatch result;
  const size_t compared = exact + relaxed + none;
  if (compared == 0) {
    result.cls = PropertyMatchClass::kExact;
    result.score = 1.0;
    return result;
  }
  const double total = static_cast<double>(compared);
  result.score = (static_cast<double>(exact) +
                  options.relaxed_credit * static_cast<double>(relaxed)) /
                 total;
  if (none == 0 && relaxed == 0) {
    result.cls = PropertyMatchClass::kExact;
  } else if (result.score >= options.relaxed_credit) {
    result.cls = PropertyMatchClass::kRelaxed;
  } else {
    result.cls = PropertyMatchClass::kNone;
  }
  return result;
}

PropertyMatch MatchProperties(const xsd::SchemaNode& source,
                              const xsd::SchemaNode& target,
                              const PropertyMatchOptions& options) {
  const Key s = xsd::PropertyKeyOf(source);
  const Key t = xsd::PropertyKeyOf(target);
  PropertyMatch result = MatchPropertyKeys(s, t, options);
  result.verdicts.reserve(6);  // one allocation for every compared property
  CompareEach(s, t, options, [&](std::string_view name, PropertyMatchClass cls) {
    result.verdicts.push_back({std::string(name), cls});
  });
  return result;
}

}  // namespace qmatch::match
