#include "match/property_matcher.h"

namespace qmatch::match {

namespace {

PropertyMatchClass CompareTypeProperty(const xsd::SchemaNode& s,
                                       const xsd::SchemaNode& t) {
  using xsd::TypeRelation;
  using xsd::XsdType;
  // Unknown user-defined types compare by their written names.
  if (s.type() == XsdType::kUnknown || t.type() == XsdType::kUnknown) {
    if (s.type() == t.type() && !s.type_name().empty() &&
        s.type_name() == t.type_name()) {
      return PropertyMatchClass::kExact;
    }
    return PropertyMatchClass::kNone;
  }
  switch (xsd::CompareTypes(s.type(), t.type())) {
    case TypeRelation::kEqual:
      return PropertyMatchClass::kExact;
    case TypeRelation::kGeneralizes:
    case TypeRelation::kSpecializes:
    case TypeRelation::kSameFamily:
      return PropertyMatchClass::kRelaxed;
    case TypeRelation::kUnrelated:
      return PropertyMatchClass::kNone;
  }
  return PropertyMatchClass::kNone;
}

PropertyMatchClass CompareOrderProperty(const xsd::SchemaNode& s,
                                        const xsd::SchemaNode& t) {
  // Order is only a semantic property under <sequence>; when either side
  // is unordered the property is vacuously exact.
  if (!s.ordered() || !t.ordered()) return PropertyMatchClass::kExact;
  return s.order() == t.order() ? PropertyMatchClass::kExact
                                : PropertyMatchClass::kRelaxed;
}

PropertyMatchClass CompareScalar(bool equal) {
  return equal ? PropertyMatchClass::kExact : PropertyMatchClass::kRelaxed;
}

}  // namespace

PropertyMatch MatchProperties(const xsd::SchemaNode& source,
                              const xsd::SchemaNode& target,
                              const PropertyMatchOptions& options) {
  PropertyMatch result;
  result.verdicts.reserve(6);  // one allocation for every compared property
  auto add = [&](std::string_view name, PropertyMatchClass cls) {
    result.verdicts.push_back({std::string(name), cls});
  };

  if (options.compare_kind) {
    add("kind", CompareScalar(source.kind() == target.kind()));
  }
  if (options.compare_type) {
    add("type", CompareTypeProperty(source, target));
  }
  if (options.compare_order) {
    add("order", CompareOrderProperty(source, target));
  }
  if (options.compare_occurs) {
    add("minOccurs", CompareScalar(source.occurs().min == target.occurs().min));
    add("maxOccurs", CompareScalar(source.occurs().max == target.occurs().max));
  }
  if (options.compare_nillable) {
    add("nillable", CompareScalar(source.nillable() == target.nillable()));
  }

  if (result.verdicts.empty()) {
    result.cls = PropertyMatchClass::kExact;
    result.score = 1.0;
    return result;
  }

  size_t exact = 0;
  size_t relaxed = 0;
  size_t none = 0;
  for (const PropertyVerdict& v : result.verdicts) {
    switch (v.cls) {
      case PropertyMatchClass::kExact:
        ++exact;
        break;
      case PropertyMatchClass::kRelaxed:
        ++relaxed;
        break;
      case PropertyMatchClass::kNone:
        ++none;
        break;
    }
  }
  const double total = static_cast<double>(result.verdicts.size());
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

}  // namespace qmatch::match
