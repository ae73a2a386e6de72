// Unit tests for the XSD built-in type lattice.

#include <gtest/gtest.h>

#include "xsd/types.h"

namespace qmatch::xsd {
namespace {

TEST(XsdTypesTest, ParseBuiltinKnownNames) {
  EXPECT_EQ(ParseBuiltinType("string"), XsdType::kString);
  EXPECT_EQ(ParseBuiltinType("int"), XsdType::kInt);
  EXPECT_EQ(ParseBuiltinType("dateTime"), XsdType::kDateTime);
  EXPECT_EQ(ParseBuiltinType("anyURI"), XsdType::kAnyUri);
  EXPECT_EQ(ParseBuiltinType("NMTOKEN"), XsdType::kNmToken);
  EXPECT_EQ(ParseBuiltinType("positiveInteger"), XsdType::kPositiveInteger);
}

TEST(XsdTypesTest, ParseBuiltinUnknownNames) {
  EXPECT_EQ(ParseBuiltinType("PersonType"), XsdType::kUnknown);
  EXPECT_EQ(ParseBuiltinType(""), XsdType::kUnknown);
  EXPECT_EQ(ParseBuiltinType("STRING"), XsdType::kUnknown);  // case matters
}

// Every type's name must parse back to the same type.
class TypeRoundtripTest : public ::testing::TestWithParam<XsdType> {};

TEST_P(TypeRoundtripTest, NameParsesBack) {
  XsdType type = GetParam();
  EXPECT_EQ(ParseBuiltinType(TypeName(type)), type)
      << "name: " << TypeName(type);
}

TEST_P(TypeRoundtripTest, DerivationChainTerminatesAtAnyType) {
  XsdType cur = GetParam();
  int steps = 0;
  while (cur != XsdType::kAnyType) {
    cur = BaseType(cur);
    ASSERT_LT(++steps, 16) << "cycle from " << TypeName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, TypeRoundtripTest,
    ::testing::Values(
        XsdType::kString, XsdType::kBoolean, XsdType::kDecimal,
        XsdType::kFloat, XsdType::kDouble, XsdType::kDuration,
        XsdType::kDateTime, XsdType::kTime, XsdType::kDate,
        XsdType::kGYearMonth, XsdType::kGYear, XsdType::kGMonthDay,
        XsdType::kGDay, XsdType::kGMonth, XsdType::kHexBinary,
        XsdType::kBase64Binary, XsdType::kAnyUri, XsdType::kQName,
        XsdType::kNormalizedString, XsdType::kToken, XsdType::kLanguage,
        XsdType::kNmToken, XsdType::kName, XsdType::kNcName, XsdType::kId,
        XsdType::kIdRef, XsdType::kEntity, XsdType::kInteger,
        XsdType::kNonPositiveInteger, XsdType::kNegativeInteger,
        XsdType::kLong, XsdType::kInt, XsdType::kShort, XsdType::kByte,
        XsdType::kNonNegativeInteger, XsdType::kUnsignedLong,
        XsdType::kUnsignedInt, XsdType::kUnsignedShort,
        XsdType::kUnsignedByte, XsdType::kPositiveInteger));

TEST(XsdTypesTest, BaseTypeChains) {
  EXPECT_EQ(BaseType(XsdType::kInt), XsdType::kLong);
  EXPECT_EQ(BaseType(XsdType::kLong), XsdType::kInteger);
  EXPECT_EQ(BaseType(XsdType::kInteger), XsdType::kDecimal);
  EXPECT_EQ(BaseType(XsdType::kId), XsdType::kNcName);
  EXPECT_EQ(BaseType(XsdType::kToken), XsdType::kNormalizedString);
  EXPECT_EQ(BaseType(XsdType::kPositiveInteger),
            XsdType::kNonNegativeInteger);
  EXPECT_EQ(BaseType(XsdType::kAnyType), XsdType::kAnyType);
}

TEST(XsdTypesTest, IsAncestorType) {
  EXPECT_TRUE(IsAncestorType(XsdType::kDecimal, XsdType::kInt));
  EXPECT_TRUE(IsAncestorType(XsdType::kInteger, XsdType::kByte));
  EXPECT_TRUE(IsAncestorType(XsdType::kString, XsdType::kId));
  EXPECT_TRUE(IsAncestorType(XsdType::kAnyType, XsdType::kString));
  EXPECT_TRUE(IsAncestorType(XsdType::kInt, XsdType::kInt));
  EXPECT_FALSE(IsAncestorType(XsdType::kInt, XsdType::kInteger));
  EXPECT_FALSE(IsAncestorType(XsdType::kString, XsdType::kInt));
  EXPECT_FALSE(IsAncestorType(XsdType::kUnknown, XsdType::kString));
}

TEST(XsdTypesTest, PrimitiveAncestor) {
  EXPECT_EQ(PrimitiveAncestor(XsdType::kInt), XsdType::kDecimal);
  EXPECT_EQ(PrimitiveAncestor(XsdType::kId), XsdType::kString);
  EXPECT_EQ(PrimitiveAncestor(XsdType::kString), XsdType::kString);
  EXPECT_EQ(PrimitiveAncestor(XsdType::kUnsignedByte), XsdType::kDecimal);
  EXPECT_EQ(PrimitiveAncestor(XsdType::kUnknown), XsdType::kUnknown);
}

TEST(XsdTypesTest, CompareTypesEqual) {
  EXPECT_EQ(CompareTypes(XsdType::kInt, XsdType::kInt), TypeRelation::kEqual);
}

TEST(XsdTypesTest, CompareTypesGeneralization) {
  EXPECT_EQ(CompareTypes(XsdType::kInteger, XsdType::kInt),
            TypeRelation::kGeneralizes);
  EXPECT_EQ(CompareTypes(XsdType::kInt, XsdType::kInteger),
            TypeRelation::kSpecializes);
  EXPECT_EQ(CompareTypes(XsdType::kString, XsdType::kToken),
            TypeRelation::kGeneralizes);
}

TEST(XsdTypesTest, CompareTypesSameFamily) {
  // Siblings under decimal.
  EXPECT_EQ(CompareTypes(XsdType::kNegativeInteger, XsdType::kUnsignedByte),
            TypeRelation::kSameFamily);
  // float/double/decimal are one numeric family for matching.
  EXPECT_EQ(CompareTypes(XsdType::kFloat, XsdType::kDouble),
            TypeRelation::kSameFamily);
  EXPECT_EQ(CompareTypes(XsdType::kFloat, XsdType::kInt),
            TypeRelation::kSameFamily);
}

TEST(XsdTypesTest, CompareTypesUnrelated) {
  EXPECT_EQ(CompareTypes(XsdType::kString, XsdType::kInt),
            TypeRelation::kUnrelated);
  EXPECT_EQ(CompareTypes(XsdType::kDate, XsdType::kBoolean),
            TypeRelation::kUnrelated);
  EXPECT_EQ(CompareTypes(XsdType::kUnknown, XsdType::kString),
            TypeRelation::kUnrelated);
  EXPECT_EQ(CompareTypes(XsdType::kUnknown, XsdType::kUnknown),
            TypeRelation::kEqual);
}

TEST(XsdTypesTest, CompareTypesIsAntisymmetric) {
  const XsdType types[] = {XsdType::kString, XsdType::kInt, XsdType::kInteger,
                           XsdType::kToken, XsdType::kFloat, XsdType::kDate};
  for (XsdType a : types) {
    for (XsdType b : types) {
      TypeRelation ab = CompareTypes(a, b);
      TypeRelation ba = CompareTypes(b, a);
      if (ab == TypeRelation::kGeneralizes) {
        EXPECT_EQ(ba, TypeRelation::kSpecializes);
      } else if (ab == TypeRelation::kSpecializes) {
        EXPECT_EQ(ba, TypeRelation::kGeneralizes);
      } else {
        EXPECT_EQ(ab, ba);
      }
    }
  }
}

TEST(XsdTypesTest, CompareTypesTableEqualsTheLatticeWalk) {
  // Every ordered pair of the kXsdTypeCount types, kUnknown included.
  for (size_t a = 0; a < kXsdTypeCount; ++a) {
    for (size_t b = 0; b < kXsdTypeCount; ++b) {
      const auto lhs = static_cast<XsdType>(a);
      const auto rhs = static_cast<XsdType>(b);
      EXPECT_EQ(CompareTypes(lhs, rhs), LatticeTypeRelation(lhs, rhs))
          << TypeName(lhs) << " vs " << TypeName(rhs);
    }
  }
  EXPECT_EQ(kXsdTypeCount,
            static_cast<size_t>(XsdType::kPositiveInteger) + 1);
}

TEST(XsdTypesTest, DerivationDistance) {
  EXPECT_EQ(DerivationDistance(XsdType::kInt, XsdType::kInt), 0);
  EXPECT_EQ(DerivationDistance(XsdType::kLong, XsdType::kInt), 1);
  EXPECT_EQ(DerivationDistance(XsdType::kDecimal, XsdType::kInt), 3);
  EXPECT_EQ(DerivationDistance(XsdType::kInt, XsdType::kDecimal), -1);
  EXPECT_EQ(DerivationDistance(XsdType::kString, XsdType::kInt), -1);
}

}  // namespace
}  // namespace qmatch::xsd
