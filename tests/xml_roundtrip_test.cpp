// Fuzz-lite round-trip tests: hundreds of seeded-random documents and
// schemas go parse -> write -> parse (and schema -> XSD text -> schema)
// with tree equality checked at each hop. The writer and parser were
// previously only tested in isolation; this layer pins their composition,
// including escaping, CDATA, mixed content and attribute handling.

#include <gtest/gtest.h>

#include <string>

#include "datagen/generator.h"
#include "support/docgen.h"
#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xsd/parser.h"
#include "xsd/schema.h"
#include "xsd/writer.h"

namespace qmatch {
namespace {

/// Structural equality of two elements: name, attributes (ordered), and
/// the interleaved child sequence with text runs compared by content.
/// CDATA-ness is not compared — `<a>x</a>` and `<a><![CDATA[x]]></a>` are
/// the same infoset text.
void ExpectSameElement(const xml::XmlElement& a, const xml::XmlElement& b,
                       const std::string& context) {
  ASSERT_EQ(a.name(), b.name()) << context;
  ASSERT_EQ(a.attributes().size(), b.attributes().size()) << context;
  for (size_t i = 0; i < a.attributes().size(); ++i) {
    EXPECT_EQ(a.attributes()[i].name, b.attributes()[i].name) << context;
    EXPECT_EQ(a.attributes()[i].value, b.attributes()[i].value) << context;
  }
  ASSERT_EQ(a.children().size(), b.children().size()) << context;
  for (size_t i = 0; i < a.children().size(); ++i) {
    const xml::XmlChild& ca = a.children()[i];
    const xml::XmlChild& cb = b.children()[i];
    ASSERT_EQ(ca.index(), cb.index()) << context << " child #" << i;
    if (std::holds_alternative<xml::XmlText>(ca)) {
      EXPECT_EQ(std::get<xml::XmlText>(ca).text, std::get<xml::XmlText>(cb).text)
          << context << " child #" << i;
    } else {
      ExpectSameElement(*std::get<std::unique_ptr<xml::XmlElement>>(ca),
                        *std::get<std::unique_ptr<xml::XmlElement>>(cb),
                        context + "/" + a.name());
    }
  }
}

void ExpectRoundTrips(const xml::XmlDocument& doc, const std::string& context) {
  // Compact output only: pretty-printing inserts indentation text runs
  // that a re-parse faithfully keeps, so only indent=0 is tree-stable.
  xml::WriteOptions compact;
  compact.indent = 0;
  const std::string text1 = xml::ToString(doc, compact);
  Result<xml::XmlDocument> reparsed = xml::Parse(text1);
  ASSERT_TRUE(reparsed.ok()) << context << ": " << reparsed.status().ToString()
                             << "\n" << text1;
  ASSERT_NE(reparsed.value().root(), nullptr) << context;
  ExpectSameElement(*doc.root(), *reparsed.value().root(), context);
  // Write -> parse -> write is a fixed point.
  EXPECT_EQ(xml::ToString(reparsed.value(), compact), text1) << context;
}

TEST(XmlRoundTripTest, GeneratedDocumentsSurviveWriteParse) {
  size_t documents = 0;
  for (uint64_t seed = 1; seed <= 125; ++seed) {
    datagen::GeneratorOptions schema_options;
    schema_options.seed = seed;
    schema_options.element_count = 5 + (seed % 12) * 5;
    schema_options.max_depth = 2 + seed % 4;
    schema_options.attribute_probability =
        static_cast<double>(seed % 4) * 0.15;
    schema_options.domain = static_cast<datagen::Domain>(seed % 4);
    schema_options.name = "RT" + std::to_string(seed);
    const xsd::Schema schema = datagen::GenerateSchema(schema_options);
    for (uint64_t doc_seed = 0; doc_seed < 2; ++doc_seed) {
      datagen::DocGenOptions doc_options;
      doc_options.seed = seed * 100 + doc_seed;
      const xml::XmlDocument doc =
          datagen::GenerateDocument(schema, doc_options);
      ASSERT_NE(doc.root(), nullptr);
      ExpectRoundTrips(doc, "seed=" + std::to_string(seed) + "/" +
                                std::to_string(doc_seed));
      ++documents;
    }
  }
  EXPECT_EQ(documents, 250u);
}

TEST(XmlRoundTripTest, GeneratedSchemasSurviveXsdWriteParse) {
  size_t schemas = 0;
  for (uint64_t seed = 1; seed <= 250; ++seed) {
    datagen::GeneratorOptions options;
    options.seed = seed * 7 + 1;
    options.element_count = 4 + (seed % 20) * 4;
    options.max_depth = 1 + seed % 6;
    options.attribute_probability = static_cast<double>(seed % 3) * 0.2;
    options.domain = static_cast<datagen::Domain>(seed % 4);
    options.name = "XsdRT" + std::to_string(seed);
    const xsd::Schema original = datagen::GenerateSchema(options);
    const std::string xsd_text = xsd::ToXsd(original);
    Result<xsd::Schema> reparsed = xsd::ParseSchema(xsd_text);
    ASSERT_TRUE(reparsed.ok())
        << "seed=" << seed << ": " << reparsed.status().ToString();
    const auto original_nodes = original.AllNodes();
    const auto reparsed_nodes = reparsed.value().AllNodes();
    ASSERT_EQ(original_nodes.size(), reparsed_nodes.size()) << "seed=" << seed;
    for (size_t i = 0; i < original_nodes.size(); ++i) {
      const xsd::SchemaNode* a = original_nodes[i];
      const xsd::SchemaNode* b = reparsed_nodes[i];
      const std::string context =
          "seed=" + std::to_string(seed) + " " + a->Path();
      EXPECT_EQ(a->Path(), b->Path()) << context;
      EXPECT_EQ(a->kind(), b->kind()) << context;
      EXPECT_EQ(a->type(), b->type()) << context;
      EXPECT_EQ(a->occurs(), b->occurs()) << context;
      EXPECT_EQ(a->level(), b->level()) << context;
      EXPECT_EQ(a->IsLeaf(), b->IsLeaf()) << context;
    }
    ++schemas;
  }
  EXPECT_EQ(schemas, 250u);
}

TEST(XmlRoundTripTest, EscapingSurvivesRoundTrip) {
  xml::XmlDocument doc;
  doc.set_root(std::make_unique<xml::XmlElement>("odd"));
  xml::XmlElement* root = doc.root();
  root->SetAttribute("quotes", R"(a"b'c)");
  root->SetAttribute("angles", "<&>");
  root->SetAttribute("unicode", "caf\xC3\xA9 \xE2\x82\xAC");
  xml::XmlElement* amp = root->AddChildElement("amp");
  amp->AddText("fish & chips < dinner > breakfast");
  xml::XmlElement* tricky = root->AddChildElement("tricky");
  tricky->AddText("]]> is fine in plain text");
  xml::XmlElement* numeric = root->AddChildElement("numeric");
  numeric->AddText("tab\tnewline\nand \xC2\xA0nbsp");
  ExpectRoundTrips(doc, "escaping");
}

TEST(XmlRoundTripTest, MixedContentSurvivesRoundTrip) {
  xml::XmlDocument doc;
  doc.set_root(std::make_unique<xml::XmlElement>("p"));
  xml::XmlElement* root = doc.root();
  root->AddText("schema matching is ");
  root->AddChildElement("em")->AddText("hard");
  root->AddText(", per ");
  xml::XmlElement* cite = root->AddChildElement("cite");
  cite->SetAttribute("year", "2005");
  cite->AddText("Claypool et al.");
  root->AddText(".");
  ExpectRoundTrips(doc, "mixed content");
}

TEST(XmlRoundTripTest, CdataContentIsPreserved) {
  xml::XmlDocument doc;
  doc.set_root(std::make_unique<xml::XmlElement>("script"));
  doc.root()->AddText("if (a < b && b > c) { run(); }", /*is_cdata=*/true);
  xml::WriteOptions compact;
  compact.indent = 0;
  const std::string text = xml::ToString(doc, compact);
  EXPECT_NE(text.find("<![CDATA["), std::string::npos);
  Result<xml::XmlDocument> reparsed = xml::Parse(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().root()->InnerText(),
            "if (a < b && b > c) { run(); }");
}

}  // namespace
}  // namespace qmatch
