// Unit tests for the synthetic generator, the perturbation engine and the
// paper corpus.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "common/file_util.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "xsd/flatten.h"
#include "xsd/parser.h"

namespace qmatch::datagen {
namespace {

// --- Generator ----------------------------------------------------------

TEST(GeneratorTest, ExactElementCount) {
  for (size_t count : {1u, 2u, 10u, 100u, 500u}) {
    GeneratorOptions options;
    options.element_count = count;
    options.max_depth = 4;
    options.seed = 42;
    xsd::Schema schema = GenerateSchema(options);
    EXPECT_EQ(schema.ElementCount(), count) << "count " << count;
  }
}

TEST(GeneratorTest, RespectsMaxDepth) {
  GeneratorOptions options;
  options.element_count = 300;
  options.max_depth = 3;
  options.seed = 9;
  xsd::Schema schema = GenerateSchema(options);
  EXPECT_LE(schema.MaxDepth(), 3u);
  EXPECT_EQ(schema.MaxDepth(), 3u) << "depth is reached when budget allows";
}

TEST(GeneratorTest, DeterministicForSeed) {
  GeneratorOptions options;
  options.element_count = 60;
  options.seed = 123;
  xsd::Schema a = GenerateSchema(options);
  xsd::Schema b = GenerateSchema(options);
  std::vector<const xsd::SchemaNode*> na = std::as_const(a).AllNodes();
  std::vector<const xsd::SchemaNode*> nb = std::as_const(b).AllNodes();
  ASSERT_EQ(na.size(), nb.size());
  for (size_t i = 0; i < na.size(); ++i) {
    EXPECT_EQ(na[i]->label(), nb[i]->label());
    EXPECT_EQ(na[i]->type(), nb[i]->type());
    EXPECT_EQ(na[i]->Path(), nb[i]->Path());
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorOptions a;
  a.element_count = 60;
  a.seed = 1;
  GeneratorOptions b = a;
  b.seed = 2;
  xsd::Schema sa = GenerateSchema(a);
  xsd::Schema sb = GenerateSchema(b);
  bool any_difference = sa.AllNodes().size() != sb.AllNodes().size();
  if (!any_difference) {
    auto na = sa.AllNodes();
    auto nb = sb.AllNodes();
    for (size_t i = 0; i < na.size(); ++i) {
      if (na[i]->label() != nb[i]->label()) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(GeneratorTest, LeavesAreTyped) {
  GeneratorOptions options;
  options.element_count = 80;
  options.seed = 4;
  xsd::Schema schema = GenerateSchema(options);
  for (const xsd::SchemaNode* node : schema.AllNodes()) {
    if (node->IsLeaf() && node->kind() == xsd::NodeKind::kElement) {
      EXPECT_NE(node->type(), xsd::XsdType::kUnknown);
      EXPECT_NE(node->type(), xsd::XsdType::kAnyType);
    }
  }
}

TEST(GeneratorTest, AttributesWhenRequested) {
  GeneratorOptions options;
  options.element_count = 100;
  options.attribute_probability = 1.0;
  options.seed = 5;
  xsd::Schema schema = GenerateSchema(options);
  size_t attributes = schema.NodeCount() - schema.ElementCount();
  EXPECT_GT(attributes, 0u);
}

TEST(GeneratorTest, DomainVocabulariesDistinct) {
  EXPECT_NE(DomainVocabulary(Domain::kProtein),
            DomainVocabulary(Domain::kCommerce));
  EXPECT_GE(DomainVocabulary(Domain::kProtein).size(), 30u);
}

// --- Perturb ------------------------------------------------------------

TEST(PerturbTest, NoOpKeepsEverythingAndGoldIsIdentity) {
  GeneratorOptions gen;
  gen.element_count = 40;
  gen.seed = 77;
  xsd::Schema source = GenerateSchema(gen);
  PerturbOptions none;
  none.rename_prob = 0.0;
  none.noise_rename_prob = 0.0;
  none.drop_prob = 0.0;
  none.add_prob = 0.0;
  none.retype_prob = 0.0;
  none.occurs_prob = 0.0;
  none.shuffle_children = false;
  eval::GoldStandard gold;
  xsd::Schema target = Perturb(source, none, &gold);
  EXPECT_EQ(target.NodeCount(), source.NodeCount());
  EXPECT_EQ(gold.size(), source.NodeCount());
  for (const auto& [s, t] : gold.pairs()) {
    EXPECT_EQ(s, t) << "identity perturbation";
  }
}

TEST(PerturbTest, GoldPathsExistInBothSchemas) {
  GeneratorOptions gen;
  gen.element_count = 60;
  gen.domain = Domain::kProtein;
  gen.seed = 88;
  xsd::Schema source = GenerateSchema(gen);
  PerturbOptions options;
  options.seed = 3;
  eval::GoldStandard gold;
  xsd::Schema target = Perturb(source, options, &gold);
  for (const auto& [s, t] : gold.pairs()) {
    EXPECT_NE(source.FindByPath(s), nullptr) << s;
    EXPECT_NE(target.FindByPath(t), nullptr) << t;
  }
}

TEST(PerturbTest, DropsReduceGoldSize) {
  GeneratorOptions gen;
  gen.element_count = 80;
  gen.seed = 99;
  xsd::Schema source = GenerateSchema(gen);
  PerturbOptions heavy;
  heavy.drop_prob = 0.5;
  heavy.add_prob = 0.0;
  heavy.seed = 1;
  eval::GoldStandard gold;
  xsd::Schema target = Perturb(source, heavy, &gold);
  EXPECT_LT(gold.size(), source.NodeCount());
  EXPECT_EQ(gold.size(), target.NodeCount());  // no additions
}

TEST(PerturbTest, RelatedRenameStaysDiscoverable) {
  EXPECT_EQ(RelatedRename("quantity", 0), "Qty");
  EXPECT_FALSE(RelatedRename("author", 0).empty());
  EXPECT_EQ(RelatedRename("zzzunknown", 0), "");
  // Camel-case tail renaming: PurchaseNumber -> Purchase + {No|Num}.
  std::string renamed = RelatedRename("PurchaseNumber", 0);
  EXPECT_TRUE(renamed == "PurchaseNo" || renamed == "PurchaseNum") << renamed;
}

TEST(PerturbTest, DeterministicForSeed) {
  GeneratorOptions gen;
  gen.element_count = 50;
  gen.seed = 10;
  xsd::Schema source = GenerateSchema(gen);
  PerturbOptions options;
  options.seed = 5;
  eval::GoldStandard g1;
  eval::GoldStandard g2;
  xsd::Schema t1 = Perturb(source, options, &g1);
  xsd::Schema t2 = Perturb(source, options, &g2);
  EXPECT_EQ(g1.pairs(), g2.pairs());
  EXPECT_EQ(t1.NodeCount(), t2.NodeCount());
}

// --- Corpus (Table 1) -----------------------------------------------

TEST(CorpusTest, Table1ElementCounts) {
  EXPECT_EQ(MakePO1().ElementCount(), 10u);
  EXPECT_EQ(MakePO2().ElementCount(), 9u);
  EXPECT_EQ(MakeArticle().ElementCount(), 18u);
  EXPECT_EQ(MakeBook().ElementCount(), 6u);
  EXPECT_EQ(MakeDcmdItem().ElementCount(), 38u);
  EXPECT_EQ(MakeDcmdOrder().ElementCount(), 53u);
  EXPECT_EQ(MakePir().ElementCount(), 231u);
  EXPECT_EQ(MakePdb().ElementCount(), 3753u);
}

TEST(CorpusTest, Table1Depths) {
  EXPECT_EQ(MakePO1().MaxDepth(), 3u);
  EXPECT_EQ(MakeArticle().MaxDepth(), 3u);
  EXPECT_EQ(MakeBook().MaxDepth(), 2u);
  EXPECT_EQ(MakeDcmdItem().MaxDepth(), 2u);
  EXPECT_EQ(MakeDcmdOrder().MaxDepth(), 3u);
  EXPECT_EQ(MakePir().MaxDepth(), 6u);
  EXPECT_EQ(MakePdb().MaxDepth(), 7u);
}

TEST(CorpusTest, LibraryAndHumanAreStructurallyIdentical) {
  xsd::Schema library = MakeLibrary();
  xsd::Schema human = MakeHuman();
  EXPECT_EQ(library.NodeCount(), human.NodeCount());
  EXPECT_EQ(library.MaxDepth(), human.MaxDepth());
  // Same shape node by node in preorder.
  auto ln = library.AllNodes();
  auto hn = human.AllNodes();
  ASSERT_EQ(ln.size(), hn.size());
  for (size_t i = 0; i < ln.size(); ++i) {
    EXPECT_EQ(ln[i]->child_count(), hn[i]->child_count());
    EXPECT_EQ(ln[i]->level(), hn[i]->level());
    EXPECT_EQ(ln[i]->type(), hn[i]->type());
  }
  // ... and lexically disjoint.
  std::set<std::string> library_labels;
  for (const xsd::SchemaNode* n : ln) library_labels.insert(n->label());
  for (const xsd::SchemaNode* n : hn) {
    EXPECT_EQ(library_labels.count(n->label()), 0u) << n->label();
  }
}

TEST(CorpusTest, GoldStandardsReferToExistingNodes) {
  for (const MatchTask& task : Tasks()) {
    xsd::Schema source = task.source();
    xsd::Schema target = task.target();
    eval::GoldStandard gold = task.gold();
    EXPECT_GT(gold.size(), 0u) << task.name;
    for (const auto& [s, t] : gold.pairs()) {
      EXPECT_NE(source.FindByPath(s), nullptr) << task.name << " " << s;
      EXPECT_NE(target.FindByPath(t), nullptr) << task.name << " " << t;
    }
  }
}

TEST(CorpusTest, XsdTextMatchesBuilderVersion) {
  // The XSD text corpus entries parse to trees equivalent to the built
  // versions (same node count, depth and paths).
  // Covered in more depth by xsd_parser_test; here: path set equality.
  xsd::Schema built = MakePO1();
  Result<xsd::Schema> parsed = xsd::ParseSchema(PO1Xsd());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::set<std::string> built_paths;
  for (const xsd::SchemaNode* n : built.AllNodes()) {
    built_paths.insert(n->Path());
  }
  std::set<std::string> parsed_paths;
  for (const xsd::SchemaNode* n : parsed->AllNodes()) {
    parsed_paths.insert(n->Path());
  }
  EXPECT_EQ(built_paths, parsed_paths);
}

TEST(CorpusTest, RegistryComplete) {
  EXPECT_EQ(Corpus().size(), 12u);
  EXPECT_EQ(Tasks().size(), 5u);
  std::set<std::string> names;
  for (const CorpusEntry& entry : Corpus()) {
    EXPECT_TRUE(names.insert(entry.name).second) << "duplicate " << entry.name;
    xsd::Schema schema = entry.make();
    EXPECT_GT(schema.NodeCount(), 0u) << entry.name;
  }
}

TEST(CorpusTest, ProteinGoldByConstruction) {
  eval::GoldStandard gold = GoldProtein();
  EXPECT_GT(gold.size(), 150u);
  xsd::Schema pir = MakePir();
  xsd::Schema pdb = MakePdb();
  for (const auto& [s, t] : gold.pairs()) {
    EXPECT_NE(pir.FindByPath(s), nullptr) << s;
    EXPECT_NE(pdb.FindByPath(t), nullptr) << t;
  }
}

// --- data/ mirrors the built-in corpus -----------------------------------
// The paper benches read the C++ corpus; qmatchd clients, perfbench and
// qmatch_cli read data/. Both copies must describe the same inputs.

TEST(CorpusDataTest, EverySchemaFileIsFlatIdenticalToItsCorpusEntry) {
  const std::string dir = std::string(QMATCH_SOURCE_DIR) + "/data/schemas";
  size_t files = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".xsd") continue;
    ++files;
    const std::string name = file.path().stem().string();
    const CorpusEntry* entry = nullptr;
    for (const CorpusEntry& candidate : Corpus()) {
      if (candidate.name == name) entry = &candidate;
    }
    ASSERT_NE(entry, nullptr) << name << ".xsd has no Corpus() entry";
    Result<std::string> text = ReadFile(file.path().string());
    ASSERT_TRUE(text.ok()) << text.status();
    Result<xsd::Schema> parsed = xsd::ParseSchema(*text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status();
    const xsd::Schema built = entry->make();
    const xsd::FlatSchema& a = parsed->Flat();
    const xsd::FlatSchema& b = built.Flat();
    EXPECT_EQ(a.label_id, b.label_id) << name;
    EXPECT_EQ(a.prop_id, b.prop_id) << name;
    EXPECT_EQ(a.level, b.level) << name;
    EXPECT_EQ(a.parent, b.parent) << name;
    EXPECT_EQ(a.child_begin, b.child_begin) << name;
    EXPECT_EQ(a.child_index, b.child_index) << name;
    EXPECT_EQ(a.labels, b.labels) << name;
    EXPECT_TRUE(a.prop_keys == b.prop_keys) << name;
    EXPECT_EQ(a.prop_rep, b.prop_rep) << name;
    EXPECT_EQ(a.max_level, b.max_level) << name;
  }
  EXPECT_EQ(files, Corpus().size()) << "every corpus entry has a file";
}

TEST(CorpusDataTest, EveryGoldFileEqualsItsTaskGold) {
  for (const MatchTask& task : Tasks()) {
    const std::string path =
        std::string(QMATCH_SOURCE_DIR) + "/data/gold/" + task.name + ".gold";
    Result<std::string> text = ReadFile(path);
    ASSERT_TRUE(text.ok()) << text.status();
    Result<eval::GoldStandard> parsed = eval::GoldStandard::Parse(*text);
    ASSERT_TRUE(parsed.ok()) << task.name << ": " << parsed.status();
    EXPECT_EQ(parsed->pairs(), task.gold().pairs()) << task.name;
  }
}

}  // namespace
}  // namespace qmatch::datagen
