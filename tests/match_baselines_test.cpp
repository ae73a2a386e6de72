// Unit tests for the linguistic and structural baseline matchers, and the
// bit-exact pins of every baseline's similarity matrix.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "datagen/corpus.h"
#include "lingua/default_thesaurus.h"
#include "match/composite_matcher.h"
#include "match/cupid_matcher.h"
#include "match/instance_matcher.h"
#include "match/linguistic_matcher.h"
#include "match/structural_matcher.h"
#include "support/docgen.h"
#include "xsd/builder.h"

namespace qmatch::match {
namespace {

using xsd::Occurs;
using xsd::Schema;
using xsd::SchemaBuilder;
using xsd::SchemaNode;
using xsd::XsdType;

// --- LinguisticMatcher ----------------------------------------------------

TEST(LinguisticMatcherTest, SelfMatchIsPerfect) {
  Schema po = datagen::MakePO1();
  Schema po_copy = datagen::MakePO1();
  LinguisticMatcher matcher(&lingua::DefaultThesaurus());
  MatchResult result = matcher.Match(po, po_copy);
  EXPECT_NEAR(result.schema_qom, 1.0, 1e-9);
  EXPECT_EQ(result.correspondences.size(), po.NodeCount());
  for (const Correspondence& c : result.correspondences) {
    EXPECT_EQ(c.source->Path(), c.target->Path());
  }
}

TEST(LinguisticMatcherTest, FindsThesaurusBackedPairs) {
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  LinguisticMatcher matcher(&lingua::DefaultThesaurus());
  MatchResult result = matcher.Match(po1, po2);
  EXPECT_TRUE(result.Contains("/PO/PurchaseInfo/Lines/Quantity",
                              "/PurchaseOrder/Items/Qty"));
  EXPECT_TRUE(result.Contains("/PO/PurchaseInfo/Lines/UnitOfMeasure",
                              "/PurchaseOrder/Items/UOM"));
  EXPECT_TRUE(result.Contains("/PO/OrderNo", "/PurchaseOrder/OrderNo"));
}

TEST(LinguisticMatcherTest, DisjointVocabularyScoresZero) {
  Schema library = datagen::MakeLibrary();
  Schema human = datagen::MakeHuman();
  LinguisticMatcher matcher(&lingua::DefaultThesaurus());
  MatchResult result = matcher.Match(library, human);
  EXPECT_NEAR(result.schema_qom, 0.0, 1e-9);
  EXPECT_TRUE(result.correspondences.empty());
}

TEST(LinguisticMatcherTest, ThresholdFilters) {
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  LinguisticMatcher::Options strict;
  strict.threshold = 0.99;
  LinguisticMatcher matcher(&lingua::DefaultThesaurus(), strict);
  MatchResult result = matcher.Match(po1, po2);
  for (const Correspondence& c : result.correspondences) {
    EXPECT_GE(c.score, 0.99);
  }
}

TEST(LinguisticMatcherTest, AmbiguousTargetsSuppressed) {
  SchemaBuilder sb("s");
  SchemaNode* sroot = sb.Root("Root");
  sb.Element(sroot, "Name", XsdType::kString);
  Schema source = std::move(sb).Build();

  SchemaBuilder tb("t");
  SchemaNode* troot = tb.Root("Root");
  SchemaNode* a = tb.Element(troot, "A");
  tb.Element(a, "Name", XsdType::kString);
  SchemaNode* b = tb.Element(troot, "B");
  tb.Element(b, "Name", XsdType::kString);
  Schema target = std::move(tb).Build();

  LinguisticMatcher matcher(&lingua::DefaultThesaurus());
  MatchResult result = matcher.Match(source, target);
  // "Name" matches two targets identically: ambiguous, not reported.
  EXPECT_EQ(result.ScoreFor("/Root/Name"), 0.0);
}

TEST(LinguisticMatcherTest, EmptySchemasYieldEmptyResult) {
  Schema empty;
  Schema po = datagen::MakePO1();
  LinguisticMatcher matcher(&lingua::DefaultThesaurus());
  EXPECT_TRUE(matcher.Match(empty, po).correspondences.empty());
  EXPECT_TRUE(matcher.Match(po, empty).correspondences.empty());
}

// --- StructuralMatcher ------------------------------------------------

TEST(StructuralMatcherTest, LeafSimilarityComponents) {
  SchemaNode a("a");
  a.set_type(XsdType::kInt);
  SchemaNode b("b");
  b.set_type(XsdType::kInt);
  EXPECT_DOUBLE_EQ(StructuralMatcher::LeafSimilarity(a, b), 1.0);

  SchemaNode c("c");
  c.set_type(XsdType::kString);
  // Unrelated type: 0.5*0.4 + 0.25 + 0.25 = 0.7.
  EXPECT_NEAR(StructuralMatcher::LeafSimilarity(a, c), 0.7, 1e-12);

  SchemaNode d("d", xsd::NodeKind::kAttribute);
  d.set_type(XsdType::kInt);
  d.set_occurs(Occurs{0, 1});
  // kind mismatch (0.7*0.25) + occurs min mismatch (0.8*0.25).
  EXPECT_NEAR(StructuralMatcher::LeafSimilarity(a, d),
              0.5 + 0.25 * 0.7 + 0.25 * 0.8, 1e-12);
}

TEST(StructuralMatcherTest, IdenticalStructuresScoreOne) {
  Schema library = datagen::MakeLibrary();
  Schema human = datagen::MakeHuman();  // same shape, same types
  StructuralMatcher matcher;
  MatchResult result = matcher.Match(library, human);
  EXPECT_NEAR(result.schema_qom, 1.0, 1e-9);
}

TEST(StructuralMatcherTest, SelfMatchScoresOne) {
  Schema a = datagen::MakePO1();
  Schema b = datagen::MakePO1();
  StructuralMatcher matcher;
  EXPECT_NEAR(matcher.Match(a, b).schema_qom, 1.0, 1e-9);
}

TEST(StructuralMatcherTest, ScrambledStructureScoresLower) {
  Schema po = datagen::MakePO1();
  // A flat schema with the same leaf types but no nesting.
  SchemaBuilder fb("flat");
  SchemaNode* froot = fb.Root("Flat");
  fb.Element(froot, "L1", XsdType::kInt);
  fb.Element(froot, "L2", XsdType::kString);
  fb.Element(froot, "L3", XsdType::kDate);
  Schema flat = std::move(fb).Build();

  StructuralMatcher matcher;
  double self_score = matcher.Match(po, po).schema_qom;
  double flat_score = matcher.Match(po, flat).schema_qom;
  EXPECT_LT(flat_score, self_score);
}

TEST(StructuralMatcherTest, IgnoresLabelsEntirely) {
  Schema library = datagen::MakeLibrary();
  Schema renamed = library.Clone();
  for (SchemaNode* node : renamed.AllNodes()) {
    node->set_label("Z" + node->label() + "Q");
  }
  renamed.Finalize();
  StructuralMatcher matcher;
  EXPECT_NEAR(matcher.Match(library, renamed).schema_qom, 1.0, 1e-9);
}

TEST(StructuralMatcherTest, ScoresAreBounded) {
  StructuralMatcher matcher;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    if (task.name == "Protein") continue;
    Schema source = task.source();
    Schema target = task.target();
    MatchResult result = matcher.Match(source, target);
    EXPECT_GE(result.schema_qom, 0.0) << task.name;
    EXPECT_LE(result.schema_qom, 1.0 + 1e-9) << task.name;
    for (const Correspondence& c : result.correspondences) {
      EXPECT_GE(c.score, 0.0);
      EXPECT_LE(c.score, 1.0 + 1e-9);
    }
  }
}

// --- MatchResult helpers ---------------------------------------------

TEST(MatchResultTest, ContainsAndScoreFor) {
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  LinguisticMatcher matcher(&lingua::DefaultThesaurus());
  MatchResult result = matcher.Match(po1, po2);
  EXPECT_TRUE(result.Contains("/PO/OrderNo", "/PurchaseOrder/OrderNo"));
  EXPECT_FALSE(result.Contains("/PO/OrderNo", "/PurchaseOrder/Date"));
  EXPECT_GT(result.ScoreFor("/PO/OrderNo"), 0.9);
  EXPECT_EQ(result.ScoreFor("/does/not/exist"), 0.0);
}

TEST(MatchResultTest, ToStringSortsByScore) {
  Schema po1 = datagen::MakePO1();
  Schema po2 = datagen::MakePO2();
  LinguisticMatcher matcher(&lingua::DefaultThesaurus());
  std::string text = matcher.Match(po1, po2).ToString();
  EXPECT_NE(text.find("linguistic"), std::string::npos);
  EXPECT_NE(text.find("/PO/OrderNo"), std::string::npos);
}

// --- Pinned similarity matrices ----------------------------------------
//
// FNV-1a over the matrix shape and the bit pattern of every cell: any
// change to any baseline score, however small, changes the hash. The pins
// were generated before the baselines moved onto the flat schema, so a
// refactor of their recurrences must keep every cell bit-identical.

uint64_t MatrixHash(const SimilarityMatrix& matrix) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  mix(matrix.source_count());
  mix(matrix.target_count());
  for (size_t i = 0; i < matrix.source_count(); ++i) {
    for (size_t j = 0; j < matrix.target_count(); ++j) {
      mix(std::bit_cast<uint64_t>(matrix.at(i, j)));
    }
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

/// Compares every computed hash with its pin; prints each mismatch (and
/// each unpinned key) in the table's own syntax.
void ExpectPinned(const std::map<std::string, uint64_t>& actual,
                  const std::map<std::string, uint64_t>& pinned) {
  for (const auto& [key, hash] : actual) {
    auto it = pinned.find(key);
    if (it == pinned.end()) {
      ADD_FAILURE() << "unpinned: {\"" << key << "\", " << Hex(hash) << "},";
    } else {
      EXPECT_EQ(Hex(hash), Hex(it->second)) << key;
    }
  }
  EXPECT_EQ(actual.size(), pinned.size());
}

TEST(BaselineMatrixPinTest, SchemaMatchersAreBitIdentical) {
  const std::map<std::string, uint64_t> pinned = {
      {"composite/Books/forward", 0x93632bc70bb5abd5},
      {"composite/Books/reverse", 0xe4c0ec38d99c0c69},
      {"composite/DCMD/forward", 0x0fb84cfe0f73276f},
      {"composite/DCMD/reverse", 0x4cf2be796c830b63},
      {"composite/LibraryHuman/forward", 0x161d3b8e270b0177},
      {"composite/PO/forward", 0xc35a9c56a41595ef},
      {"composite/PO/reverse", 0x81f04d672ff3ef77},
      {"composite/Protein/forward", 0x3a114bdce9804378},
      {"composite/Protein/reverse", 0xd376e066583ad64c},
      {"composite/XBench/forward", 0xb65cdf3f912fa74c},
      {"composite/XBench/reverse", 0x2a6d14e9fcbdf83c},
      {"cupid/Books/forward", 0xd1b70a47adea933e},
      {"cupid/Books/reverse", 0xe82a1c2809072a6a},
      {"cupid/DCMD/forward", 0x4cecb95f9ef17373},
      {"cupid/DCMD/reverse", 0x86b7c7bda6d3a6b3},
      {"cupid/LibraryHuman/forward", 0xe5b320bad5300903},
      {"cupid/PO/forward", 0x690d391888f1fa64},
      {"cupid/PO/reverse", 0xaaf4b4f71ff3ae4c},
      {"cupid/Protein/forward", 0xa05797e84588ff1f},
      {"cupid/Protein/reverse", 0xd221a4a92ee943cf},
      {"cupid/XBench/forward", 0x8f55585483c9e2e4},
      {"cupid/XBench/reverse", 0xff6c1a2fef59a8b4},
      {"linguistic/Books/forward", 0xffe76c7306becd89},
      {"linguistic/Books/reverse", 0x5b26bbb0f85827f5},
      {"linguistic/DCMD/forward", 0x413dfa476bab5f6c},
      {"linguistic/DCMD/reverse", 0x2dbdfd3494bab8b0},
      {"linguistic/LibraryHuman/forward", 0xab6c85119cf6d603},
      {"linguistic/PO/forward", 0x216fd0f4db298896},
      {"linguistic/PO/reverse", 0x3a74ee5cb002a146},
      {"linguistic/Protein/forward", 0x8dbac1faabd0162e},
      {"linguistic/Protein/reverse", 0x3272303c5dafbc6e},
      {"linguistic/XBench/forward", 0xf7c328323193dd4e},
      {"linguistic/XBench/reverse", 0x6af66ab013f1266a},
      {"structural/Books/forward", 0xba4f70c111d5bcd7},
      {"structural/Books/reverse", 0x833d15fd378c16db},
      {"structural/DCMD/forward", 0x0184fbac0c2f48da},
      {"structural/DCMD/reverse", 0xa5a467043ee846d6},
      {"structural/LibraryHuman/forward", 0xc4e9fc80de25b057},
      {"structural/PO/forward", 0x002469cbc4674677},
      {"structural/PO/reverse", 0x8962b8acc97979f7},
      {"structural/Protein/forward", 0xcadcffcee4cb6954},
      {"structural/Protein/reverse", 0x7a1c0acf972adcd0},
      {"structural/XBench/forward", 0xf125abc665c48883},
      {"structural/XBench/reverse", 0xb766468405300a0f},
  };

  LinguisticMatcher linguistic(&lingua::DefaultThesaurus());
  StructuralMatcher structural;
  CupidMatcher cupid(&lingua::DefaultThesaurus());
  CompositeMatcher composite({&linguistic, &structural});
  const std::map<std::string, const Matcher*> matchers = {
      {"linguistic", &linguistic},
      {"structural", &structural},
      {"cupid", &cupid},
      {"composite", &composite},
  };

  std::map<std::string, uint64_t> actual;
  auto pin = [&](const std::string& pair, const Schema& source,
                 const Schema& target) {
    for (const auto& [name, matcher] : matchers) {
      actual[name + "/" + pair] =
          MatrixHash(matcher->Similarity(source, target));
    }
  };
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    Schema source = task.source();
    Schema target = task.target();
    pin(task.name + "/forward", source, target);
    pin(task.name + "/reverse", target, source);
  }
  pin("LibraryHuman/forward", datagen::MakeLibrary(), datagen::MakeHuman());
  ExpectPinned(actual, pinned);
}

TEST(BaselineMatrixPinTest, InstanceMatcherIsBitIdentical) {
  const std::map<std::string, uint64_t> pinned = {
      {"instance/Books/forward", 0x2264a105ac642549},
      {"instance/Books/reverse", 0x99ef84c1f08faf21},
      {"instance/PO/forward", 0x46687af4cf4b2871},
      {"instance/PO/reverse", 0xa74293d9d746db01},
  };

  // Seeded sample documents: three per side, so value sets overlap
  // partially and the inner-pair recurrence sees a mix of linked and
  // unlinked leaves.
  auto documents = [](const Schema& schema, uint64_t seed) {
    std::vector<xml::XmlDocument> docs;
    for (uint64_t k = 0; k < 3; ++k) {
      datagen::DocGenOptions options;
      options.seed = seed + k;
      docs.push_back(datagen::GenerateDocument(schema, options));
    }
    return docs;
  };
  auto pointers = [](const std::vector<xml::XmlDocument>& docs) {
    std::vector<const xml::XmlDocument*> out;
    for (const xml::XmlDocument& doc : docs) out.push_back(&doc);
    return out;
  };

  std::map<std::string, uint64_t> actual;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    if (task.name != "PO" && task.name != "Books") continue;
    Schema source = task.source();
    Schema target = task.target();
    std::vector<xml::XmlDocument> source_docs = documents(source, 11);
    std::vector<xml::XmlDocument> target_docs = documents(target, 11);
    InstanceMatcher forward(pointers(source_docs), pointers(target_docs));
    InstanceMatcher reverse(pointers(target_docs), pointers(source_docs));
    actual["instance/" + task.name + "/forward"] =
        MatrixHash(forward.Similarity(source, target));
    actual["instance/" + task.name + "/reverse"] =
        MatrixHash(reverse.Similarity(target, source));
  }
  ExpectPinned(actual, pinned);
}

}  // namespace
}  // namespace qmatch::match
