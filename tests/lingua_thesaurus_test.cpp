// Unit tests for the thesaurus and the built-in default dictionary.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lingua/default_thesaurus.h"
#include "lingua/thesaurus.h"
#include "lingua/thesaurus_io.h"

namespace qmatch::lingua {

/// Read access to the thesaurus tables, for the oracle below.
struct ThesaurusPeer {
  static const std::map<std::string, std::set<std::string>>& Hyponyms(
      const Thesaurus& t) {
    return t.hyponyms_;
  }
  static const std::map<std::string, std::set<std::string>>& Acronyms(
      const Thesaurus& t) {
    return t.acronyms_;
  }
  static const std::map<std::string, std::set<std::string>>& Abbreviations(
      const Thesaurus& t) {
    return t.abbreviations_;
  }
  static const std::vector<std::set<std::string>>& SynonymGroups(
      const Thesaurus& t) {
    return t.synonym_groups_;
  }
  static const std::set<std::string>* SynonymSet(const Thesaurus& t,
                                                 const std::string& term) {
    return t.SynonymSet(term);
  }
};

namespace {

// --- Oracle: the per-query BFS the hypernym closures replaced -------------

bool OracleIsHypernymOf(const Thesaurus& t, const std::string& g,
                        const std::string& s) {
  if (g.empty() || s.empty() || g == s) return false;
  const auto& hyponyms = ThesaurusPeer::Hyponyms(t);
  constexpr size_t kMaxDepth = 4;
  std::set<std::string> frontier = {g};
  if (const std::set<std::string>* group = ThesaurusPeer::SynonymSet(t, g)) {
    frontier.insert(group->begin(), group->end());
  }
  for (size_t depth = 0; depth < kMaxDepth; ++depth) {
    std::set<std::string> next;
    for (const std::string& term : frontier) {
      auto it = hyponyms.find(term);
      if (it == hyponyms.end()) continue;
      for (const std::string& hypo : it->second) {
        if (hypo == s) return true;
        if (const std::set<std::string>* group =
                ThesaurusPeer::SynonymSet(t, hypo)) {
          if (group->count(s) > 0) return true;
          next.insert(group->begin(), group->end());
        }
        next.insert(hypo);
      }
    }
    if (next.empty()) return false;
    frontier = std::move(next);
  }
  return false;
}

TermRelation OracleRelate(const Thesaurus& t, const std::string& ca,
                          const std::string& cb) {
  if (ca.empty() || cb.empty()) return TermRelation::kNone;
  if (ca == cb) return TermRelation::kEqual;
  if (!t.MentionedCanonical(ca) && !t.MentionedCanonical(cb)) {
    return TermRelation::kNone;
  }
  if (t.AreSynonymsCanonical(ca, cb)) return TermRelation::kSynonym;
  auto expands_to = [&](const std::map<std::string, std::set<std::string>>&
                            table,
                        const std::string& short_form,
                        const std::string& long_form) {
    auto it = table.find(short_form);
    if (it == table.end()) return false;
    if (it->second.count(long_form) > 0) return true;
    for (const std::string& expansion : it->second) {
      if (t.AreSynonymsCanonical(expansion, long_form)) return true;
    }
    return false;
  };
  const auto& acronyms = ThesaurusPeer::Acronyms(t);
  const auto& abbreviations = ThesaurusPeer::Abbreviations(t);
  if (expands_to(acronyms, ca, cb)) return TermRelation::kAcronym;
  if (expands_to(acronyms, cb, ca)) return TermRelation::kExpansion;
  if (expands_to(abbreviations, ca, cb)) return TermRelation::kAbbreviation;
  if (expands_to(abbreviations, cb, ca)) return TermRelation::kExpansion;
  if (OracleIsHypernymOf(t, ca, cb)) return TermRelation::kHypernym;
  if (OracleIsHypernymOf(t, cb, ca)) return TermRelation::kHyponym;
  return TermRelation::kNone;
}

/// Every term any table of `t` holds, plus `extra`.
std::vector<std::string> AllTerms(const Thesaurus& t,
                                  const std::vector<std::string>& extra) {
  std::set<std::string> terms(extra.begin(), extra.end());
  for (const auto* table :
       {&ThesaurusPeer::Hyponyms(t), &ThesaurusPeer::Acronyms(t),
        &ThesaurusPeer::Abbreviations(t)}) {
    for (const auto& [key, values] : *table) {
      terms.insert(key);
      terms.insert(values.begin(), values.end());
    }
  }
  for (const std::set<std::string>& group : ThesaurusPeer::SynonymGroups(t)) {
    terms.insert(group.begin(), group.end());
  }
  return {terms.begin(), terms.end()};
}

/// RelateCanonical and IsHypernymOfCanonical agree with the oracle on every
/// ordered pair of `terms`; returns how many pairs relate as hypernyms.
size_t ExpectOracleAgrees(const Thesaurus& t,
                          const std::vector<std::string>& terms) {
  size_t hypernyms = 0;
  for (const std::string& a : terms) {
    for (const std::string& b : terms) {
      const bool want = OracleIsHypernymOf(t, a, b);
      EXPECT_EQ(t.IsHypernymOfCanonical(a, b), want) << a << " > " << b;
      EXPECT_EQ(t.RelateCanonical(a, b), OracleRelate(t, a, b))
          << a << " vs " << b;
      if (want) ++hypernyms;
      if (::testing::Test::HasFailure()) return hypernyms;
    }
  }
  return hypernyms;
}

TEST(ThesaurusTest, EmptyRelatesNothing) {
  Thesaurus t;
  EXPECT_EQ(t.Relate("a", "b"), TermRelation::kNone);
  EXPECT_EQ(t.Relate("a", "a"), TermRelation::kEqual);
  EXPECT_EQ(t.RelationCount(), 0u);
}

TEST(ThesaurusTest, SynonymsAreSymmetric) {
  Thesaurus t;
  t.AddSynonym("author", "writer");
  EXPECT_EQ(t.Relate("author", "writer"), TermRelation::kSynonym);
  EXPECT_EQ(t.Relate("writer", "author"), TermRelation::kSynonym);
  EXPECT_TRUE(t.AreSynonyms("author", "writer"));
  EXPECT_FALSE(t.AreSynonyms("author", "author"));  // equality, not synonymy
}

TEST(ThesaurusTest, SynonymGroupsMergeTransitively) {
  Thesaurus t;
  t.AddSynonym("a", "b");
  t.AddSynonym("c", "d");
  EXPECT_FALSE(t.AreSynonyms("a", "c"));
  t.AddSynonym("b", "c");  // merges the two groups
  EXPECT_TRUE(t.AreSynonyms("a", "d"));
  EXPECT_TRUE(t.AreSynonyms("d", "a"));
}

TEST(ThesaurusTest, CanonicalizationAppliesToLookups) {
  Thesaurus t;
  t.AddSynonym("line", "item");
  // Plural, camel-case and case variants all resolve.
  EXPECT_EQ(t.Relate("Lines", "Items"), TermRelation::kSynonym);
  EXPECT_EQ(t.Relate("LINE", "item"), TermRelation::kSynonym);
  EXPECT_EQ(t.Relate("OrderLines", "OrderItems"), TermRelation::kNone)
      << "multi-word labels only match stored multi-word terms";
}

TEST(ThesaurusTest, HypernymsAreDirectional) {
  Thesaurus t;
  t.AddHypernym("publication", "book");
  EXPECT_EQ(t.Relate("publication", "book"), TermRelation::kHypernym);
  EXPECT_EQ(t.Relate("book", "publication"), TermRelation::kHyponym);
  EXPECT_TRUE(t.IsHypernymOf("publication", "book"));
  EXPECT_FALSE(t.IsHypernymOf("book", "publication"));
}

TEST(ThesaurusTest, HypernymsAreTransitiveBounded) {
  Thesaurus t;
  t.AddHypernym("entity", "publication");
  t.AddHypernym("publication", "book");
  t.AddHypernym("book", "paperback");
  EXPECT_TRUE(t.IsHypernymOf("entity", "paperback"));
  EXPECT_FALSE(t.IsHypernymOf("paperback", "entity"));
}

TEST(ThesaurusTest, HypernymThroughSynonyms) {
  Thesaurus t;
  t.AddSynonym("book", "volume");
  t.AddHypernym("publication", "book");
  EXPECT_TRUE(t.IsHypernymOf("publication", "volume"));
}

TEST(ThesaurusTest, AcronymsExpand) {
  Thesaurus t;
  t.AddAcronym("uom", "unit of measure");
  EXPECT_EQ(t.Relate("UOM", "UnitOfMeasure"), TermRelation::kAcronym);
  EXPECT_EQ(t.Relate("UnitOfMeasure", "UOM"), TermRelation::kExpansion);
  EXPECT_EQ(t.Expand("uom").value(), "unit of measure");
  EXPECT_FALSE(t.Expand("xyz").has_value());
}

TEST(ThesaurusTest, AcronymViaSynonymOfExpansion) {
  Thesaurus t;
  t.AddAcronym("po", "purchase order");
  t.AddSynonym("purchase order", "sales order");
  EXPECT_EQ(t.Relate("PO", "SalesOrder"), TermRelation::kAcronym);
}

TEST(ThesaurusTest, AbbreviationsRelate) {
  Thesaurus t;
  t.AddAbbreviation("qty", "quantity");
  EXPECT_EQ(t.Relate("Qty", "Quantity"), TermRelation::kAbbreviation);
  EXPECT_EQ(t.Relate("Quantity", "Qty"), TermRelation::kExpansion);
}

TEST(ThesaurusTest, RelationCountTracksAdds) {
  Thesaurus t;
  t.AddSynonym("a", "b");
  t.AddHypernym("c", "d");
  t.AddAcronym("e", "ee something");
  t.AddAbbreviation("f", "ff full");
  EXPECT_EQ(t.RelationCount(), 4u);
  t.AddSynonym("a", "a");  // degenerate: ignored
  EXPECT_EQ(t.RelationCount(), 4u);
}

TEST(ThesaurusTest, HypernymClosureMatchesBfsOracle) {
  // A chain deeper than the walk's bound, a cycle and synonyms at several
  // levels: the closures must reproduce the bounded BFS exactly.
  Thesaurus t;
  const std::vector<std::string> chain = {"c0", "c1", "c2", "c3",
                                          "c4", "c5", "c6"};
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    t.AddHypernym(chain[i], chain[i + 1]);
  }
  t.AddSynonym("c2", "ctwo");
  t.AddSynonym("c0", "czero");
  t.AddHypernym("ctwo", "side");
  t.AddHypernym("loop a", "loop b");
  t.AddHypernym("loop b", "loop a");
  t.AddSynonym("loop b", "loop c");
  const std::vector<std::string> terms = AllTerms(t, {"nowhere"});
  const size_t hypernyms = ExpectOracleAgrees(t, terms);
  EXPECT_TRUE(t.IsHypernymOf("c0", "c4"));
  EXPECT_FALSE(t.IsHypernymOf("c0", "c5")) << "the walk stops at depth 4";
  EXPECT_TRUE(t.IsHypernymOf("czero", "side"));
  EXPECT_GT(hypernyms, 10u);
}

TEST(ThesaurusTest, RelationsAddedAfterAQueryAreSeen) {
  Thesaurus t;
  t.AddHypernym("publication", "book");
  EXPECT_TRUE(t.IsHypernymOf("publication", "book"));
  EXPECT_FALSE(t.IsHypernymOf("publication", "paperback"));
  t.AddHypernym("book", "paperback");
  EXPECT_TRUE(t.IsHypernymOf("publication", "paperback"));
  EXPECT_FALSE(t.IsHypernymOf("publication", "softcover"));
  t.AddSynonym("paperback", "softcover");
  EXPECT_TRUE(t.IsHypernymOf("publication", "softcover"));
  EXPECT_EQ(t.Relate("softcover", "publication"), TermRelation::kHyponym);

  // A copy answers like the original and extends independently.
  Thesaurus copy = t;
  EXPECT_TRUE(copy.IsHypernymOf("publication", "softcover"));
  copy.AddHypernym("softcover", "pocket book");
  EXPECT_TRUE(copy.IsHypernymOf("publication", "pocket book"));
  EXPECT_FALSE(t.IsHypernymOf("publication", "pocket book"));
}

// --- Default dictionary ------------------------------------------------

TEST(DefaultThesaurusTest, RelateMatchesBfsOracleOnEveryTermPair) {
  const Thesaurus& t = DefaultThesaurus();
  const std::vector<std::string> terms =
      AllTerms(t, {"zzyzx", "order line", "protein", "xyzzy code"});
  ASSERT_GT(terms.size(), 100u);
  EXPECT_GT(ExpectOracleAgrees(t, terms), 0u);
}

TEST(DefaultThesaurusTest, RelatedCanonicalsCoverEveryRelatedPair) {
  // The label join's guarantee: a pair of distinct terms that relates at
  // all is found from one of its two terms' RelatedCanonicals.
  const Thesaurus& t = DefaultThesaurus();
  const std::vector<std::string> terms =
      AllTerms(t, {"zzyzx", "order line", "protein", "xyzzy code"});
  std::map<std::string, std::set<std::string>> related;
  for (const std::string& term : terms) {
    const std::vector<std::string> list = t.RelatedCanonicals(term);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end())) << term;
    EXPECT_EQ(std::count(list.begin(), list.end(), term), 0) << term;
    if (!t.MentionedCanonical(term)) {
      EXPECT_TRUE(list.empty()) << term;
    }
    related[term].insert(list.begin(), list.end());
  }
  size_t relating = 0;
  for (const std::string& a : terms) {
    for (const std::string& b : terms) {
      if (a == b || t.RelateCanonical(a, b) == TermRelation::kNone) continue;
      ++relating;
      EXPECT_TRUE(related[a].count(b) > 0 || related[b].count(a) > 0)
          << a << " vs " << b;
    }
  }
  EXPECT_GT(relating, 100u);
}

TEST(DefaultThesaurusTest, IsSubstantial) {
  EXPECT_GE(DefaultThesaurus().RelationCount(), 150u);
}

TEST(DefaultThesaurusTest, PaperExampleRelations) {
  const Thesaurus& t = DefaultThesaurus();
  // The relations exercised by the paper's PO example (Section 2).
  EXPECT_EQ(t.Relate("UOM", "UnitOfMeasure"), TermRelation::kAcronym);
  EXPECT_EQ(t.Relate("Qty", "Quantity"), TermRelation::kAbbreviation);
  EXPECT_EQ(t.Relate("PO", "PurchaseOrder"), TermRelation::kAcronym);
  EXPECT_EQ(t.Relate("Lines", "Items"), TermRelation::kSynonym);
  EXPECT_EQ(t.Relate("BillTo", "BillingAddress"), TermRelation::kSynonym);
  EXPECT_EQ(t.Relate("ShipTo", "ShippingAddress"), TermRelation::kSynonym);
}

TEST(DefaultThesaurusTest, CrossDomainVocabulary) {
  const Thesaurus& t = DefaultThesaurus();
  EXPECT_EQ(t.Relate("author", "creator"), TermRelation::kSynonym);
  EXPECT_EQ(t.Relate("organism", "species"), TermRelation::kSynonym);
  EXPECT_EQ(t.Relate("publication", "article"), TermRelation::kHypernym);
  EXPECT_EQ(t.Relate("date", "PurchaseDate"), TermRelation::kHypernym);
  EXPECT_EQ(t.Relate("No", "Number"), TermRelation::kAbbreviation);
  EXPECT_EQ(t.Relate("pir", "ProteinInformationResource"),
            TermRelation::kAcronym);
}

TEST(DefaultThesaurusTest, UnrelatedStaysUnrelated) {
  const Thesaurus& t = DefaultThesaurus();
  EXPECT_EQ(t.Relate("protein", "invoice"), TermRelation::kNone);
  EXPECT_EQ(t.Relate("library", "human"), TermRelation::kNone);
  EXPECT_EQ(t.Relate("head", "writer"), TermRelation::kNone);
}

// --- Text format IO -------------------------------------------------

TEST(ThesaurusIoTest, ParsesAllRelationKinds) {
  Result<Thesaurus> t = ParseThesaurus(R"(
# a comment
synonym: author, writer, creator
hypernym: publication > book    # trailing comment
acronym: UOM = unit of measure
abbreviation: qty = quantity
)");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->Relate("author", "creator"), TermRelation::kSynonym);
  EXPECT_EQ(t->Relate("writer", "creator"), TermRelation::kSynonym);
  EXPECT_EQ(t->Relate("publication", "book"), TermRelation::kHypernym);
  EXPECT_EQ(t->Relate("UOM", "UnitOfMeasure"), TermRelation::kAcronym);
  EXPECT_EQ(t->Relate("qty", "quantity"), TermRelation::kAbbreviation);
}

TEST(ThesaurusIoTest, EmptyAndCommentOnlyInputs) {
  EXPECT_TRUE(ParseThesaurus("").ok());
  EXPECT_TRUE(ParseThesaurus("# only comments\n\n  \n").ok());
  EXPECT_EQ(ParseThesaurus("")->RelationCount(), 0u);
}

TEST(ThesaurusIoTest, MergeExtendsExistingDictionary) {
  Thesaurus t = MakeDefaultThesaurus();
  ASSERT_TRUE(MergeThesaurus("synonym: flux, capacitance\n", &t).ok());
  EXPECT_TRUE(t.AreSynonyms("flux", "capacitance"));
  EXPECT_TRUE(t.AreSynonyms("author", "writer"));  // defaults intact
}

TEST(ThesaurusIoTest, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* fragment;
  };
  const Case cases[] = {
      {"synonym author, writer", "missing 'kind:'"},
      {"synonym: onlyone", ">= 2 terms"},
      {"hypernym: no-arrow", "general > specific"},
      {"acronym: no-equals", "short = long"},
      {"frobnicate: a, b", "unknown kind"},
      {"\n\nsynonym:", "empty body"},
  };
  for (const Case& c : cases) {
    Result<Thesaurus> t = ParseThesaurus(c.text);
    ASSERT_FALSE(t.ok()) << c.text;
    EXPECT_NE(t.status().message().find(c.fragment), std::string::npos)
        << t.status();
  }
  // Line numbers point at the offending line.
  Result<Thesaurus> t = ParseThesaurus("synonym: a, b\n\nbad line\n");
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 3"), std::string::npos)
      << t.status();
}

TEST(DefaultThesaurusTest, MakeCopyIsExtensible) {
  Thesaurus copy = MakeDefaultThesaurus();
  size_t base = copy.RelationCount();
  copy.AddSynonym("gadget", "widget");
  EXPECT_EQ(copy.RelationCount(), base + 1);
  EXPECT_TRUE(copy.AreSynonyms("gadget", "widget"));
  // The shared default is untouched.
  EXPECT_FALSE(DefaultThesaurus().AreSynonyms("gadget", "widget"));
}

}  // namespace
}  // namespace qmatch::lingua
