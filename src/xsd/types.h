#ifndef QMATCH_XSD_TYPES_H_
#define QMATCH_XSD_TYPES_H_

#include <cstddef>
#include <string_view>

namespace qmatch::xsd {

/// Built-in XML Schema datatypes (W3C XML Schema Part 2), arranged in the
/// specification's derivation hierarchy. `kUnknown` marks user-defined types
/// the parser could not resolve to a built-in base.
enum class XsdType {
  kUnknown = 0,
  kAnyType,
  kAnySimpleType,
  // Primitive types.
  kString,
  kBoolean,
  kDecimal,
  kFloat,
  kDouble,
  kDuration,
  kDateTime,
  kTime,
  kDate,
  kGYearMonth,
  kGYear,
  kGMonthDay,
  kGDay,
  kGMonth,
  kHexBinary,
  kBase64Binary,
  kAnyUri,
  kQName,
  // String-derived.
  kNormalizedString,
  kToken,
  kLanguage,
  kNmToken,
  kName,
  kNcName,
  kId,
  kIdRef,
  kEntity,
  // Decimal-derived.
  kInteger,
  kNonPositiveInteger,
  kNegativeInteger,
  kLong,
  kInt,
  kShort,
  kByte,
  kNonNegativeInteger,
  kUnsignedLong,
  kUnsignedInt,
  kUnsignedShort,
  kUnsignedByte,
  kPositiveInteger,
};

/// How two types relate in the derivation hierarchy. Used by the property
/// matcher: `kGeneralizes`/`kSpecializes` yield a *relaxed* type match
/// (Section 2.1 of the paper), `kEqual` an *exact* one.
enum class TypeRelation {
  kEqual,
  kGeneralizes,   // lhs is an ancestor (generalization) of rhs
  kSpecializes,   // lhs is a descendant (specialization) of rhs
  kSameFamily,    // share a primitive ancestor other than anySimpleType
  kUnrelated,
};

/// Parses a built-in type local name ("int", "string", ...). Returns
/// kUnknown for names that are not built-in XSD types.
XsdType ParseBuiltinType(std::string_view local_name);

/// Canonical local name of a built-in type ("unknown" for kUnknown).
std::string_view TypeName(XsdType type);

/// Immediate base type in the XSD derivation hierarchy; kAnyType for the
/// roots (kAnyType, kUnknown map to themselves).
XsdType BaseType(XsdType type);

/// True if `general` appears on `specific`'s derivation chain (inclusive of
/// equality only when `general == specific`).
bool IsAncestorType(XsdType general, XsdType specific);

/// The primitive ancestor of `type` (string for ID, decimal for int, ...).
XsdType PrimitiveAncestor(XsdType type);

/// Number of XsdType values (kUnknown .. kPositiveInteger).
inline constexpr size_t kXsdTypeCount =
    static_cast<size_t>(XsdType::kPositiveInteger) + 1;

/// Classifies the relation between two types. Unknown types compare
/// kUnrelated unless equal. Answers from a kXsdTypeCount² table filled once
/// by LatticeTypeRelation.
TypeRelation CompareTypes(XsdType lhs, XsdType rhs);

/// The derivation-lattice walk CompareTypes tabulates: equality, then the
/// ancestor chains both ways, then the primitive families.
TypeRelation LatticeTypeRelation(XsdType lhs, XsdType rhs);

/// Number of derivation steps between `type` and its ancestor `ancestor`;
/// -1 when `ancestor` is not on the chain.
int DerivationDistance(XsdType ancestor, XsdType type);

}  // namespace qmatch::xsd

#endif  // QMATCH_XSD_TYPES_H_
