// Unit and property tests for XML instance generation and its round trip
// through schema inference.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "support/docgen.h"
#include "xsd/builder.h"
#include "xml/writer.h"
#include "xsd/infer.h"

namespace qmatch::datagen {
namespace {

TEST(DocGenTest, RootMatchesSchema) {
  xsd::Schema schema = MakePO1();
  xml::XmlDocument doc = GenerateDocument(schema);
  ASSERT_NE(doc.root(), nullptr);
  EXPECT_EQ(doc.root()->name(), "PO");
}

TEST(DocGenTest, DeterministicForSeed) {
  xsd::Schema schema = MakeDcmdOrder();
  DocGenOptions options;
  options.seed = 5;
  std::string a = xml::ToString(GenerateDocument(schema, options));
  std::string b = xml::ToString(GenerateDocument(schema, options));
  EXPECT_EQ(a, b);
  options.seed = 6;
  EXPECT_NE(a, xml::ToString(GenerateDocument(schema, options)));
}

TEST(DocGenTest, MandatoryChildrenAlwaysPresent) {
  xsd::Schema schema = MakePO1();  // all children have minOccurs = 1
  DocGenOptions options;
  options.optional_probability = 0.0;
  xml::XmlDocument doc = GenerateDocument(schema, options);
  const xml::XmlElement* info = doc.root()->FirstChildElement("PurchaseInfo");
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->FirstChildElement("Lines"), nullptr);
  EXPECT_NE(doc.root()->FirstChildElement("OrderNo"), nullptr);
}

TEST(DocGenTest, RepeatsStayWithinOccursAndMaxRepeat) {
  xsd::Schema schema = MakeXBenchOrder();  // Order is unbounded
  DocGenOptions options;
  options.max_repeat = 4;
  options.seed = 11;
  xml::XmlDocument doc = GenerateDocument(schema, options);
  size_t orders = doc.root()->ChildElementsNamed("Order").size();
  EXPECT_GE(orders, 1u);
  EXPECT_LE(orders, 4u);

  // Bounded elements: max_repeat above maxOccurs must not lift the bound,
  // and below minOccurs it must not cut the minimum.
  xsd::SchemaBuilder b("s");
  xsd::SchemaNode* root = b.Root("root");
  b.Element(root, "pair", xsd::XsdType::kString, xsd::Occurs{2, 3});
  b.Element(root, "maybe", xsd::XsdType::kString, xsd::Occurs{0, 2});
  xsd::Schema bounded = std::move(b).Build();
  options.optional_probability = 1.0;
  for (int max_repeat : {1, 10}) {
    options.max_repeat = max_repeat;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      options.seed = seed;
      doc = GenerateDocument(bounded, options);
      size_t pairs = doc.root()->ChildElementsNamed("pair").size();
      size_t maybes = doc.root()->ChildElementsNamed("maybe").size();
      EXPECT_GE(pairs, 2u) << "max_repeat " << max_repeat;
      EXPECT_LE(pairs, 3u) << "max_repeat " << max_repeat;
      EXPECT_GE(maybes, 1u) << "max_repeat " << max_repeat;
      EXPECT_LE(maybes, 2u) << "max_repeat " << max_repeat;
    }
  }
}

TEST(DocGenTest, FixedValueHonoured) {
  xsd::SchemaBuilder b("s");
  xsd::SchemaNode* root = b.Root("root");
  b.Element(root, "constant", xsd::XsdType::kString)
      ->set_fixed_value("always-this");
  xsd::Schema schema = std::move(b).Build();
  xml::XmlDocument doc = GenerateDocument(schema);
  EXPECT_EQ(doc.root()->FirstChildElement("constant")->InnerText(),
            "always-this");
}

TEST(DocGenTest, AttributesEmitted) {
  xsd::SchemaBuilder b("s");
  xsd::SchemaNode* root = b.Root("root");
  b.Element(root, "child", xsd::XsdType::kString);
  b.Attribute(root, "id", xsd::XsdType::kInt, /*required=*/true);
  b.Attribute(root, "note", xsd::XsdType::kString, /*required=*/false);
  xsd::Schema schema = std::move(b).Build();
  xml::XmlDocument doc = GenerateDocument(schema);
  EXPECT_TRUE(doc.root()->HasAttribute("id"));
  // Required attributes do not depend on the optional-node coin.
  DocGenOptions options;
  options.optional_probability = 0.0;
  doc = GenerateDocument(schema, options);
  EXPECT_TRUE(doc.root()->HasAttribute("id"));
  EXPECT_FALSE(doc.root()->HasAttribute("note"));
}

// --- Round trip: infer(generate(S)) reconstructs S's structure ---------

class DocGenRoundtripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DocGenRoundtripTest, InferenceReconstructsPaths) {
  GeneratorOptions gen;
  gen.element_count = 60;
  gen.max_depth = 4;
  gen.domain = Domain::kCommerce;
  gen.seed = GetParam();
  gen.name = "Doc";
  xsd::Schema original = GenerateSchema(gen);

  DocGenOptions docgen;
  docgen.seed = GetParam() + 1;
  docgen.optional_probability = 1.0;  // emit everything
  docgen.max_repeat = 2;
  xml::XmlDocument doc = GenerateDocument(original, docgen);

  Result<xsd::Schema> inferred = xsd::InferSchema(doc);
  ASSERT_TRUE(inferred.ok()) << inferred.status();

  // Path sets must coincide: every declared node was emitted and every
  // emitted node was declared.
  std::set<std::string> original_paths;
  for (const xsd::SchemaNode* node : original.AllNodes()) {
    original_paths.insert(node->Path());
  }
  std::set<std::string> inferred_paths;
  for (const xsd::SchemaNode* node : inferred->AllNodes()) {
    inferred_paths.insert(node->Path());
  }
  EXPECT_EQ(original_paths, inferred_paths);
  EXPECT_EQ(inferred->MaxDepth(), original.MaxDepth());
}

TEST_P(DocGenRoundtripTest, InferredLeafTypesCompatible) {
  GeneratorOptions gen;
  gen.element_count = 40;
  gen.max_depth = 3;
  gen.seed = GetParam() + 100;
  gen.name = "Typed";
  xsd::Schema original = GenerateSchema(gen);

  DocGenOptions docgen;
  docgen.seed = GetParam() + 101;
  docgen.optional_probability = 1.0;
  Result<xsd::Schema> inferred =
      xsd::InferSchema(GenerateDocument(original, docgen));
  ASSERT_TRUE(inferred.ok());

  for (const xsd::SchemaNode* node : original.AllNodes()) {
    if (!node->IsLeaf()) continue;
    const xsd::SchemaNode* twin = inferred->FindByPath(node->Path());
    ASSERT_NE(twin, nullptr) << node->Path();
    // The inferred type must be the declared type, a relative on the
    // lattice, or a safe widening to string.
    bool compatible =
        twin->type() == node->type() ||
        xsd::CompareTypes(twin->type(), node->type()) !=
            xsd::TypeRelation::kUnrelated ||
        twin->type() == xsd::XsdType::kString;
    EXPECT_TRUE(compatible) << node->Path() << ": declared "
                            << xsd::TypeName(node->type()) << ", inferred "
                            << xsd::TypeName(twin->type());
  }
}

// Types whose lexical space `xsd::InferValueType` recognises; any other
// declared type may legitimately read back as a string.
bool InferrerReadsType(xsd::XsdType type) {
  switch (xsd::PrimitiveAncestor(type)) {
    case xsd::XsdType::kDecimal:
    case xsd::XsdType::kFloat:
    case xsd::XsdType::kDouble:
    case xsd::XsdType::kBoolean:
    case xsd::XsdType::kDate:
    case xsd::XsdType::kDateTime:
    case xsd::XsdType::kGYear:
    case xsd::XsdType::kAnyUri:
      return true;
    default:
      return false;
  }
}

// Conformance of a document generated with default options, read back
// through inference: every emitted node is declared; wherever a parent
// was emitted, its required children and attributes were too; a node
// declared at most once never repeats; and leaf values of the types the
// inferrer recognises stay in the declared type's family.
void ExpectConforms(const xsd::Schema& schema, const DocGenOptions& options) {
  Result<xsd::Schema> inferred =
      xsd::InferSchema(GenerateDocument(schema, options));
  ASSERT_TRUE(inferred.ok()) << inferred.status();
  const std::string& name = schema.root()->label();
  EXPECT_EQ(inferred->root()->label(), name);
  for (const xsd::SchemaNode* node : inferred->AllNodes()) {
    EXPECT_NE(schema.FindByPath(node->Path()), nullptr)
        << name << ": undeclared " << node->Path();
  }
  for (const xsd::SchemaNode* node : schema.AllNodes()) {
    if (node->parent() == nullptr ||
        inferred->FindByPath(node->parent()->Path()) == nullptr) {
      continue;
    }
    const xsd::SchemaNode* twin = inferred->FindByPath(node->Path());
    if (node->occurs().min >= 1) {
      ASSERT_NE(twin, nullptr) << name << ": missing " << node->Path();
      EXPECT_EQ(twin->occurs().min, 1) << name << ": " << node->Path();
    }
    if (twin == nullptr) continue;
    if (node->occurs().max == 1) {
      EXPECT_EQ(twin->occurs().max, 1) << name << ": " << node->Path();
    }
    if (node->IsLeaf() && InferrerReadsType(node->type())) {
      EXPECT_NE(xsd::CompareTypes(twin->type(), node->type()),
                xsd::TypeRelation::kUnrelated)
          << name << ": " << node->Path() << " declared "
          << xsd::TypeName(node->type()) << ", inferred "
          << xsd::TypeName(twin->type());
    }
  }
}

TEST_P(DocGenRoundtripTest, DocumentsConformAtDefaultOptions) {
  GeneratorOptions gen;
  gen.element_count = 50;
  gen.max_depth = 4;
  gen.attribute_probability = 0.3;
  gen.seed = GetParam();
  gen.name = "Conf";
  DocGenOptions docgen;
  docgen.seed = GetParam() + 1;
  ExpectConforms(GenerateSchema(gen), docgen);

  for (const CorpusEntry& entry : Corpus()) {
    if (entry.name == "PDB") continue;  // large; covered by generated case
    docgen.seed = GetParam();
    ExpectConforms(entry.make(), docgen);
  }
}

// Checks one emitted element against its declaration: it carries every
// attribute the declaration requires, and so does each emitted child
// element (sibling labels are unique, so the label names the declaration).
// Returns how many required attributes were checked.
size_t ExpectRequiredAttributes(const xml::XmlElement& element,
                                const xsd::SchemaNode& node) {
  size_t checked = 0;
  for (const auto& child : node.children()) {
    if (child->kind() == xsd::NodeKind::kAttribute &&
        child->occurs().min >= 1) {
      EXPECT_TRUE(element.HasAttribute(child->label()))
          << node.Path() << " lacks required @" << child->label();
      ++checked;
    }
  }
  for (const xml::XmlElement* emitted : element.ChildElements()) {
    const xsd::SchemaNode* declared = nullptr;
    for (const auto& child : node.children()) {
      if (child->kind() == xsd::NodeKind::kElement &&
          child->label() == emitted->name()) {
        declared = child.get();
      }
    }
    EXPECT_NE(declared, nullptr)
        << node.Path() << ": undeclared " << emitted->name();
    if (declared != nullptr) {
      checked += ExpectRequiredAttributes(*emitted, *declared);
    }
  }
  return checked;
}

// GenerateSchema declares every attribute optional, so a seeded half of them
// is made required here, through the mutable tree.
TEST_P(DocGenRoundtripTest, RequiredAttributesAlwaysEmitted) {
  GeneratorOptions gen;
  gen.element_count = 50;
  gen.max_depth = 4;
  gen.attribute_probability = 0.5;
  gen.seed = GetParam();
  gen.name = "Attr";
  xsd::Schema schema = GenerateSchema(gen);
  std::vector<xsd::SchemaNode*> attributes;
  for (xsd::SchemaNode* node : schema.AllNodes()) {
    if (node->kind() == xsd::NodeKind::kAttribute) attributes.push_back(node);
  }
  ASSERT_GE(attributes.size(), 2u);
  Random rng(GetParam());
  rng.Shuffle(attributes);
  for (size_t k = 0; k < attributes.size() / 2; ++k) {
    attributes[k]->set_occurs(xsd::Occurs{1, 1});
  }

  for (double optional_probability : {0.0, 0.7}) {
    DocGenOptions docgen;
    docgen.seed = GetParam() + 1;
    docgen.optional_probability = optional_probability;
    const xml::XmlDocument doc = GenerateDocument(schema, docgen);
    ASSERT_NE(doc.root(), nullptr);
    EXPECT_GT(ExpectRequiredAttributes(*doc.root(), *schema.root()), 0u)
        << "optional_probability " << optional_probability;
    ExpectConforms(schema, docgen);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DocGenRoundtripTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace qmatch::datagen
