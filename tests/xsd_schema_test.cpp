// Unit tests for the schema tree model and builder, plus the path lookup
// (against the original linear scan as oracle) and the fingerprint memo.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/random.h"
#include "datagen/generator.h"
#include "xsd/builder.h"
#include "xsd/flatten.h"
#include "xsd/parser.h"
#include "xsd/schema.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace qmatch::xsd {
namespace {

Schema MakeSample() {
  // root
  // ├ a (int)
  // └ b
  //   ├ c (string)
  //   └ @id (ID attribute)
  SchemaBuilder builder("sample");
  SchemaNode* root = builder.Root("root");
  builder.Element(root, "a", XsdType::kInt);
  SchemaNode* b = builder.Element(root, "b");
  builder.Element(b, "c", XsdType::kString);
  builder.Attribute(b, "id", XsdType::kId, /*required=*/true);
  return std::move(builder).Build();
}

TEST(SchemaTest, CountsAndDepth) {
  Schema schema = MakeSample();
  EXPECT_EQ(schema.NodeCount(), 5u);
  EXPECT_EQ(schema.ElementCount(), 4u);  // attribute not counted
  EXPECT_EQ(schema.MaxDepth(), 2u);
  EXPECT_EQ(schema.name(), "sample");
}

TEST(SchemaTest, LevelsAssignedByFinalize) {
  Schema schema = MakeSample();
  EXPECT_EQ(schema.root()->level(), 0u);
  EXPECT_EQ(schema.root()->child(0)->level(), 1u);
  EXPECT_EQ(schema.root()->child(1)->child(0)->level(), 2u);
}

TEST(SchemaTest, OrderAssignedUnderSequence) {
  Schema schema = MakeSample();
  const SchemaNode* a = schema.root()->child(0);
  const SchemaNode* b = schema.root()->child(1);
  EXPECT_EQ(a->order(), 0);
  EXPECT_EQ(b->order(), 1);
  EXPECT_TRUE(a->ordered());  // root compositor defaults to sequence
}

TEST(SchemaTest, OrderNotSemanticUnderAll) {
  SchemaBuilder builder("s");
  SchemaNode* root = builder.Root("root", Compositor::kAll);
  builder.Element(root, "x");
  builder.Element(root, "y");
  Schema schema = std::move(builder).Build();
  EXPECT_FALSE(schema.root()->child(0)->ordered());
}

TEST(SchemaTest, PathsIncludeAttributesWithAt) {
  Schema schema = MakeSample();
  const SchemaNode* attr = schema.root()->child(1)->child(1);
  ASSERT_EQ(attr->kind(), NodeKind::kAttribute);
  EXPECT_EQ(attr->Path(), "/root/b/@id");
  EXPECT_EQ(schema.root()->Path(), "/root");
  EXPECT_EQ(schema.root()->child(1)->child(0)->Path(), "/root/b/c");
}

TEST(SchemaTest, FindByPath) {
  Schema schema = MakeSample();
  const SchemaNode* c = schema.FindByPath("/root/b/c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->label(), "c");
  EXPECT_EQ(schema.FindByPath("/root/b/@id")->kind(), NodeKind::kAttribute);
  EXPECT_EQ(schema.FindByPath("/nope"), nullptr);
}

TEST(SchemaTest, AllNodesIsPreorder) {
  Schema schema = MakeSample();
  std::vector<const SchemaNode*> nodes = std::as_const(schema).AllNodes();
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_EQ(nodes[0]->label(), "root");
  EXPECT_EQ(nodes[1]->label(), "a");
  EXPECT_EQ(nodes[2]->label(), "b");
  EXPECT_EQ(nodes[3]->label(), "c");
  EXPECT_EQ(nodes[4]->label(), "id");
}

TEST(SchemaTest, SubtreeSizeAndHeight) {
  Schema schema = MakeSample();
  EXPECT_EQ(schema.root()->SubtreeSize(), 5u);
  EXPECT_EQ(schema.root()->Height(), 2u);
  EXPECT_EQ(schema.root()->child(0)->Height(), 0u);
  EXPECT_TRUE(schema.root()->child(0)->IsLeaf());
  EXPECT_FALSE(schema.root()->IsLeaf());
}

TEST(SchemaTest, FindChildByLabel) {
  Schema schema = MakeSample();
  EXPECT_NE(schema.root()->FindChild("a"), nullptr);
  EXPECT_EQ(schema.root()->FindChild("zzz"), nullptr);
}

TEST(SchemaTest, CloneIsDeepAndEqualShaped) {
  Schema schema = MakeSample();
  Schema copy = schema.Clone();
  EXPECT_EQ(copy.NodeCount(), schema.NodeCount());
  EXPECT_EQ(copy.MaxDepth(), schema.MaxDepth());
  EXPECT_EQ(copy.name(), schema.name());
  // Mutating the copy must not affect the original.
  copy.root()->child(0)->set_label("renamed");
  EXPECT_EQ(schema.root()->child(0)->label(), "a");
  // Types, occurs and kinds survive the clone.
  const SchemaNode* attr = copy.FindByPath("/root/b/@id");
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->type(), XsdType::kId);
  EXPECT_EQ(attr->occurs().min, 1);
}

TEST(SchemaTest, OccursDefaultsAndUnbounded) {
  Occurs dflt;
  EXPECT_EQ(dflt.min, 1);
  EXPECT_EQ(dflt.max, 1);
  EXPECT_FALSE(dflt.unbounded());
  Occurs unbounded{0, Occurs::kUnbounded};
  EXPECT_TRUE(unbounded.unbounded());
  EXPECT_EQ(dflt, (Occurs{1, 1}));
  EXPECT_FALSE(dflt == unbounded);
}

TEST(SchemaTest, EmptySchemaIsWellBehaved) {
  Schema schema;
  EXPECT_EQ(schema.root(), nullptr);
  EXPECT_EQ(schema.NodeCount(), 0u);
  EXPECT_EQ(schema.ElementCount(), 0u);
  EXPECT_EQ(schema.MaxDepth(), 0u);
  EXPECT_TRUE(schema.AllNodes().empty());
  EXPECT_EQ(schema.FindByPath("/x"), nullptr);
}

TEST(SchemaTest, TypeNameDefaultsToBuiltinName) {
  SchemaNode node("n");
  node.set_type(XsdType::kInt);
  EXPECT_EQ(node.type_name(), "int");
  node.set_type(XsdType::kUnknown, "MyType");
  EXPECT_EQ(node.type_name(), "MyType");
}

TEST(SchemaTest, DebugAndTreeStringsMentionLabels) {
  Schema schema = MakeSample();
  std::string tree = schema.ToTreeString();
  EXPECT_NE(tree.find("root"), std::string::npos);
  EXPECT_NE(tree.find("@id"), std::string::npos);
  EXPECT_NE(schema.root()->DebugString().find("level=0"), std::string::npos);
}

TEST(SchemaTest, TakeRootDetaches) {
  Schema schema = MakeSample();
  std::unique_ptr<SchemaNode> root = schema.TakeRoot();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(schema.root(), nullptr);
  EXPECT_EQ(root->SubtreeSize(), 5u);
}

// --- FindByPath vs the linear-scan oracle ----------------------------------

/// The original FindByPath: the first node in preorder whose Path() equals
/// the query. Paths are rendered once per schema (the scan itself is
/// unchanged), which keeps the O(nodes²) oracle affordable at 4000 nodes.
class LinearScanOracle {
 public:
  explicit LinearScanOracle(const Schema& schema)
      : nodes_(schema.AllNodes()) {
    paths_.reserve(nodes_.size());
    for (const SchemaNode* node : nodes_) paths_.push_back(node->Path());
  }

  const SchemaNode* Find(std::string_view path) const {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (paths_[i] == path) return nodes_[i];
    }
    return nullptr;
  }

  const std::vector<const SchemaNode*>& nodes() const { return nodes_; }

 private:
  std::vector<const SchemaNode*> nodes_;
  std::vector<std::string> paths_;
};

void ExpectMatchesOracle(const Schema& schema, const std::string& context) {
  const LinearScanOracle oracle(schema);
  for (const SchemaNode* node : oracle.nodes()) {
    const std::string path = node->Path();
    const SchemaNode* expected = oracle.Find(path);
    ASSERT_EQ(schema.FindByPath(path), expected) << context << " " << path;
    // Near misses: a trailing '/', a truncated last label and an extended
    // one must agree with the oracle too (normally absent).
    for (const std::string& probe :
         {path + "/", path.substr(0, path.size() - 1), path + "x"}) {
      ASSERT_EQ(schema.FindByPath(probe), oracle.Find(probe))
          << context << " " << probe;
    }
  }
  for (std::string_view probe : {"", "/", "//", "@", "/@", "/no-such-root"}) {
    EXPECT_EQ(schema.FindByPath(probe), oracle.Find(probe))
        << context << " '" << probe << "'";
  }
}

/// Seeded generated schema with the collisions a path lookup can trip on:
/// duplicate sibling labels (the second copy with a subtree of its own, so
/// some paths resolve only by backtracking into it), attributes sharing an
/// element sibling's label, and elements labelled "@x" whose path equals an
/// attribute's.
Schema CollidingSchema(size_t elements, uint64_t seed) {
  datagen::GeneratorOptions options;
  options.seed = seed;
  options.element_count = elements;
  options.max_depth = 6 + seed % 3;
  options.attribute_probability = 0.3;
  options.name = "Colliding" + std::to_string(elements);
  Schema schema = datagen::GenerateSchema(options);
  Random rng(seed);
  for (SchemaNode* node : schema.AllNodes()) {
    if (node->IsLeaf() || !rng.Bernoulli(0.3)) continue;
    const std::string label =
        node->child(rng.Uniform(node->child_count()))->label();
    SchemaNode* twin = node->AddChild(std::make_unique<SchemaNode>(label));
    twin->AddChild(std::make_unique<SchemaNode>("only-in-twin"));
    twin->AddChild(
        std::make_unique<SchemaNode>("only-in-twin", NodeKind::kAttribute));
    node->AddChild(std::make_unique<SchemaNode>(label, NodeKind::kAttribute));
    node->AddChild(std::make_unique<SchemaNode>("@" + label));
  }
  schema.Finalize();
  return schema;
}

constexpr const char* kShippedSchemas[] = {
    "Article.xsd", "Book.xsd",      "DCMDItem.xsd",      "DCMDOrder.xsd",
    "Human.xsd",   "Library.xsd",   "PDB.xsd",           "PIR.xsd",
    "PO1.xsd",     "PO2.xsd",       "XBenchCatalog.xsd", "XBenchOrder.xsd"};

Schema LoadShipped(const std::string& file) {
  Result<std::string> text =
      ReadFile(std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + file);
  EXPECT_TRUE(text.ok()) << file << ": " << text.status();
  Result<Schema> schema = ParseSchema(text.ok() ? *text : std::string());
  EXPECT_TRUE(schema.ok()) << file << ": " << schema.status();
  return schema.ok() ? std::move(*schema) : Schema();
}

TEST(FindByPathOracleTest, EveryNodeOfEveryShippedSchema) {
  for (const char* file : kShippedSchemas) {
    const Schema schema = LoadShipped(file);
    ASSERT_NE(schema.root(), nullptr) << file;
    ExpectMatchesOracle(schema, file);
  }
}

TEST(FindByPathOracleTest, SeededSchemasWithCollidingLabels) {
  uint64_t seed = 9100;
  for (const size_t elements :
       {size_t{10}, size_t{37}, size_t{150}, size_t{600}, size_t{1500},
        size_t{4000}}) {
    const Schema schema = CollidingSchema(elements, seed++);
    ASSERT_GE(schema.NodeCount(), elements);
    ExpectMatchesOracle(schema, schema.name());
  }
}

TEST(FindByPathOracleTest, RepeatedLabelsResolveToFirstInPreorder) {
  // top ─ a ─ x         The path /top/a resolves to the first a; the
  //     └ a ─ y         path /top/a/y exists only below the second a, so
  //     └ @a            the descent must backtrack out of the first. The
  //     └ "@a"          attribute a and the element "@a" share /top/@a.
  SchemaBuilder builder("dups");
  SchemaNode* root = builder.Root("top");
  SchemaNode* first = builder.Element(root, "a");
  builder.Element(first, "x");
  SchemaNode* second = builder.Element(root, "a");
  SchemaNode* y = builder.Element(second, "y");
  SchemaNode* attribute = builder.Attribute(root, "a", XsdType::kString);
  builder.Element(root, "@a");
  const Schema schema = std::move(builder).Build();
  EXPECT_EQ(schema.FindByPath("/top/a"), first);
  EXPECT_EQ(schema.FindByPath("/top/a/y"), y);
  EXPECT_EQ(schema.FindByPath("/top/@a"), attribute);
  EXPECT_EQ(schema.FindByPath("/top/a/"), nullptr);
  EXPECT_EQ(schema.FindByPath("/top/"), nullptr);
  EXPECT_EQ(schema.FindByPath("/to"), nullptr);
  EXPECT_EQ(schema.FindByPath("/"), nullptr);
  EXPECT_EQ(schema.FindByPath(""), nullptr);
}

// --- Fingerprint memo -----------------------------------------------------

TEST(FingerprintMemoTest, EqualsTheFreeFunction) {
  for (const char* file : kShippedSchemas) {
    const Schema schema = LoadShipped(file);
    EXPECT_EQ(schema.Fingerprint(), SchemaFingerprint(schema)) << file;
    EXPECT_EQ(schema.Fingerprint(), SchemaFingerprint(schema)) << file;  // memo
  }
  for (const size_t elements : {size_t{10}, size_t{600}}) {
    const Schema schema = CollidingSchema(elements, elements);
    EXPECT_EQ(schema.Fingerprint(), SchemaFingerprint(schema));
  }
  const Schema empty;
  EXPECT_EQ(empty.Fingerprint(), SchemaFingerprint(empty));
}

TEST(FingerprintMemoTest, TreeChangesResetTheMemo) {
  Schema schema = MakeSample();
  const uint64_t original = schema.Fingerprint();

  // Finalize after an in-place mutation recomputes.
  schema.root()->child(0)->set_label("renamed");
  schema.Finalize();
  const uint64_t renamed = schema.Fingerprint();
  EXPECT_NE(renamed, original);
  EXPECT_EQ(renamed, SchemaFingerprint(schema));

  // TakeRoot empties the schema; set_root brings the tree back.
  std::unique_ptr<SchemaNode> root = schema.TakeRoot();
  EXPECT_EQ(schema.Fingerprint(), SchemaFingerprint(Schema{}));
  schema.set_root(std::move(root));
  EXPECT_EQ(schema.Fingerprint(), renamed);

  // set_root with a different tree recomputes.
  schema.set_root(std::make_unique<SchemaNode>("other"));
  EXPECT_EQ(schema.Fingerprint(), SchemaFingerprint(schema));
  EXPECT_NE(schema.Fingerprint(), renamed);
}

TEST(FingerprintMemoTest, MemoSurvivesMoves) {
  Schema source = MakeSample();
  const uint64_t fingerprint = source.Fingerprint();
  Schema moved = std::move(source);
  // Proof the memo itself moved, not a recompute: mutate without Finalize
  // (which a caller must never do) and the cached value still answers.
  moved.root()->child(0)->set_label("stale");
  EXPECT_EQ(moved.Fingerprint(), fingerprint);
  EXPECT_NE(SchemaFingerprint(moved), fingerprint);
  // The moved-from schema owns no tree and reports the empty fingerprint.
  EXPECT_EQ(source.Fingerprint(), SchemaFingerprint(Schema{}));

  Schema assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Fingerprint(), fingerprint);
}

TEST(FingerprintMemoTest, ConcurrentFirstCallsAgree) {
  const Schema schema = CollidingSchema(1500, 77);
  const uint64_t expected = SchemaFingerprint(schema);
  constexpr size_t kThreads = 8;
  std::vector<uint64_t> seen(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = schema.Fingerprint();
      (void)schema.Flat();  // the memo mutex is shared with Flat()
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (uint64_t fingerprint : seen) EXPECT_EQ(fingerprint, expected);
}

}  // namespace
}  // namespace qmatch::xsd
