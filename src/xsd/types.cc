#include "xsd/types.h"

#include <array>
#include <utility>

namespace qmatch::xsd {

namespace {

struct TypeInfo {
  XsdType type;
  std::string_view name;
  XsdType base;
};

// Derivation hierarchy per W3C XML Schema Part 2 §3.
constexpr std::array<TypeInfo, 42> kTypeTable = {{
    {XsdType::kUnknown, "unknown", XsdType::kUnknown},
    {XsdType::kAnyType, "anyType", XsdType::kAnyType},
    {XsdType::kAnySimpleType, "anySimpleType", XsdType::kAnyType},
    {XsdType::kString, "string", XsdType::kAnySimpleType},
    {XsdType::kBoolean, "boolean", XsdType::kAnySimpleType},
    {XsdType::kDecimal, "decimal", XsdType::kAnySimpleType},
    {XsdType::kFloat, "float", XsdType::kAnySimpleType},
    {XsdType::kDouble, "double", XsdType::kAnySimpleType},
    {XsdType::kDuration, "duration", XsdType::kAnySimpleType},
    {XsdType::kDateTime, "dateTime", XsdType::kAnySimpleType},
    {XsdType::kTime, "time", XsdType::kAnySimpleType},
    {XsdType::kDate, "date", XsdType::kAnySimpleType},
    {XsdType::kGYearMonth, "gYearMonth", XsdType::kAnySimpleType},
    {XsdType::kGYear, "gYear", XsdType::kAnySimpleType},
    {XsdType::kGMonthDay, "gMonthDay", XsdType::kAnySimpleType},
    {XsdType::kGDay, "gDay", XsdType::kAnySimpleType},
    {XsdType::kGMonth, "gMonth", XsdType::kAnySimpleType},
    {XsdType::kHexBinary, "hexBinary", XsdType::kAnySimpleType},
    {XsdType::kBase64Binary, "base64Binary", XsdType::kAnySimpleType},
    {XsdType::kAnyUri, "anyURI", XsdType::kAnySimpleType},
    {XsdType::kQName, "QName", XsdType::kAnySimpleType},
    {XsdType::kNormalizedString, "normalizedString", XsdType::kString},
    {XsdType::kToken, "token", XsdType::kNormalizedString},
    {XsdType::kLanguage, "language", XsdType::kToken},
    {XsdType::kNmToken, "NMTOKEN", XsdType::kToken},
    {XsdType::kName, "Name", XsdType::kToken},
    {XsdType::kNcName, "NCName", XsdType::kName},
    {XsdType::kId, "ID", XsdType::kNcName},
    {XsdType::kIdRef, "IDREF", XsdType::kNcName},
    {XsdType::kEntity, "ENTITY", XsdType::kNcName},
    {XsdType::kInteger, "integer", XsdType::kDecimal},
    {XsdType::kNonPositiveInteger, "nonPositiveInteger", XsdType::kInteger},
    {XsdType::kNegativeInteger, "negativeInteger",
     XsdType::kNonPositiveInteger},
    {XsdType::kLong, "long", XsdType::kInteger},
    {XsdType::kInt, "int", XsdType::kLong},
    {XsdType::kShort, "short", XsdType::kInt},
    {XsdType::kByte, "byte", XsdType::kShort},
    {XsdType::kNonNegativeInteger, "nonNegativeInteger", XsdType::kInteger},
    {XsdType::kUnsignedLong, "unsignedLong", XsdType::kNonNegativeInteger},
    {XsdType::kUnsignedInt, "unsignedInt", XsdType::kUnsignedLong},
    {XsdType::kUnsignedShort, "unsignedShort", XsdType::kUnsignedInt},
    {XsdType::kUnsignedByte, "unsignedByte", XsdType::kUnsignedShort},
}};

const TypeInfo& InfoOf(XsdType type) {
  for (const TypeInfo& info : kTypeTable) {
    if (info.type == type) return info;
  }
  return kTypeTable[0];
}

}  // namespace

XsdType ParseBuiltinType(std::string_view local_name) {
  for (const TypeInfo& info : kTypeTable) {
    if (info.name == local_name) return info.type;
  }
  // positiveInteger is the one type not representable purely by the table
  // loop above (its base is nonNegativeInteger); handle explicitly.
  if (local_name == "positiveInteger") return XsdType::kPositiveInteger;
  return XsdType::kUnknown;
}

std::string_view TypeName(XsdType type) {
  if (type == XsdType::kPositiveInteger) return "positiveInteger";
  return InfoOf(type).name;
}

XsdType BaseType(XsdType type) {
  if (type == XsdType::kPositiveInteger) return XsdType::kNonNegativeInteger;
  return InfoOf(type).base;
}

bool IsAncestorType(XsdType general, XsdType specific) {
  if (general == specific) return true;
  if (general == XsdType::kUnknown || specific == XsdType::kUnknown) {
    return false;
  }
  XsdType cur = specific;
  while (cur != XsdType::kAnyType) {
    cur = BaseType(cur);
    if (cur == general) return true;
  }
  return general == XsdType::kAnyType;
}

XsdType PrimitiveAncestor(XsdType type) {
  if (type == XsdType::kUnknown || type == XsdType::kAnyType ||
      type == XsdType::kAnySimpleType) {
    return type;
  }
  XsdType cur = type;
  while (BaseType(cur) != XsdType::kAnySimpleType) {
    cur = BaseType(cur);
  }
  return cur;
}

TypeRelation CompareTypes(XsdType lhs, XsdType rhs) {
  static const std::array<TypeRelation, kXsdTypeCount * kXsdTypeCount>
      table = [] {
        std::array<TypeRelation, kXsdTypeCount * kXsdTypeCount> relations{};
        for (size_t a = 0; a < kXsdTypeCount; ++a) {
          for (size_t b = 0; b < kXsdTypeCount; ++b) {
            relations[a * kXsdTypeCount + b] = LatticeTypeRelation(
                static_cast<XsdType>(a), static_cast<XsdType>(b));
          }
        }
        return relations;
      }();
  return table[static_cast<size_t>(lhs) * kXsdTypeCount +
               static_cast<size_t>(rhs)];
}

TypeRelation LatticeTypeRelation(XsdType lhs, XsdType rhs) {
  if (lhs == rhs) return TypeRelation::kEqual;
  if (lhs == XsdType::kUnknown || rhs == XsdType::kUnknown) {
    return TypeRelation::kUnrelated;
  }
  if (IsAncestorType(lhs, rhs)) return TypeRelation::kGeneralizes;
  if (IsAncestorType(rhs, lhs)) return TypeRelation::kSpecializes;
  XsdType pl = PrimitiveAncestor(lhs);
  XsdType pr = PrimitiveAncestor(rhs);
  if (pl == pr && pl != XsdType::kAnySimpleType && pl != XsdType::kAnyType) {
    return TypeRelation::kSameFamily;
  }
  // float/double/decimal are spec-distinct primitives but semantically one
  // numeric family for matching purposes.
  auto numeric = [](XsdType t) {
    return t == XsdType::kDecimal || t == XsdType::kFloat ||
           t == XsdType::kDouble;
  };
  if (numeric(pl) && numeric(pr)) return TypeRelation::kSameFamily;
  return TypeRelation::kUnrelated;
}

int DerivationDistance(XsdType ancestor, XsdType type) {
  int steps = 0;
  XsdType cur = type;
  for (;;) {
    if (cur == ancestor) return steps;
    if (cur == XsdType::kAnyType) return -1;
    cur = BaseType(cur);
    ++steps;
  }
}

}  // namespace qmatch::xsd
