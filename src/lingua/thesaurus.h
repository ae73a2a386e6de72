#ifndef QMATCH_LINGUA_THESAURUS_H_
#define QMATCH_LINGUA_THESAURUS_H_

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace qmatch::lingua {

/// Relation between two terms, as used by the QoM label axis:
/// equal / synonym -> *exact* label match; hypernym / hyponym / acronym /
/// abbreviation -> *relaxed* label match (paper Section 2.1).
enum class TermRelation {
  kNone,
  kEqual,
  kSynonym,
  kHypernym,      // lhs is a broader term for rhs
  kHyponym,       // lhs is a narrower term for rhs
  kAcronym,       // lhs is an acronym of rhs ("uom" / "unit of measure")
  kAbbreviation,  // lhs abbreviates rhs ("qty" / "quantity")
  kExpansion,     // lhs is the expansion of acronym/abbreviation rhs
};

/// An in-memory linguistic resource: synonym sets, a hypernym hierarchy,
/// and acronym/abbreviation expansions.
///
/// This stands in for the WordNet-style resource the paper's CUPID-based
/// linguistic matcher consumed (see DESIGN.md §5). Terms are stored in the
/// normalised form produced by `NormalizeLabel` (lower-case, space
/// separated); all lookups normalise their inputs first.
///
/// Const lookups are safe from many threads at once; the Add* methods are
/// not, and must not run concurrently with anything else.
class Thesaurus {
 public:
  Thesaurus() = default;

  /// Declares `a` and `b` synonyms (symmetric, transitive via union-find
  /// style merged sets).
  void AddSynonym(std::string_view a, std::string_view b);

  /// Declares `general` a hypernym (broader term) of `specific`.
  void AddHypernym(std::string_view general, std::string_view specific);

  /// Declares `acronym` to expand to `expansion` ("UOM" -> "unit of measure").
  void AddAcronym(std::string_view acronym, std::string_view expansion);

  /// Declares `abbrev` a short form of `full` ("qty" -> "quantity").
  void AddAbbreviation(std::string_view abbrev, std::string_view full);

  /// Classifies the relation of `a` to `b`. Checks, in order: equality,
  /// synonymy (including via expansions), hypernym/hyponym (transitive,
  /// bounded depth), acronym, abbreviation.
  TermRelation Relate(std::string_view a, std::string_view b) const;

  /// Same as Relate but requires both inputs to already be in canonical
  /// form (lower-case, singularized, space-separated — the output of
  /// `CanonicalizeLabel`). Skips re-canonicalization; the hot path for
  /// matchers that prepare labels once per node.
  TermRelation RelateCanonical(const std::string& a, const std::string& b) const;

  /// The terms other than `term` (canonical) that its own table entries
  /// relate it to: its synonym group, its acronym and abbreviation
  /// expansions with their synonym groups, and its hypernym closure, sorted.
  /// Empty when `term` is not mentioned. For any a != b, RelateCanonical(a,
  /// b) != kNone implies b is in RelatedCanonicals(a) or a is in
  /// RelatedCanonicals(b), which is what lets a label join enumerate the
  /// related pairs instead of testing every pair.
  std::vector<std::string> RelatedCanonicals(const std::string& term) const;

  /// Expansion lookup for an already canonical term (see Expand).
  std::optional<std::string> ExpandCanonical(const std::string& term) const;

  bool AreSynonyms(std::string_view a, std::string_view b) const;
  bool AreSynonymsCanonical(const std::string& a, const std::string& b) const;

  /// True if `general` is a (transitive) hypernym of `specific`: `specific`
  /// (or a synonym of it) lies at most four hyponym links below `general`
  /// or one of its synonyms.
  bool IsHypernymOf(std::string_view general, std::string_view specific) const;
  bool IsHypernymOfCanonical(const std::string& general,
                             const std::string& specific) const;

  /// The stored expansion of `term` when it is a known acronym or
  /// abbreviation, else nullopt.
  std::optional<std::string> Expand(std::string_view term) const;

  /// Number of stored relations. It grows with every Add* not ignored,
  /// which is how a NameMatcher's token memo detects a changed thesaurus.
  size_t RelationCount() const { return relation_count_; }

  /// True when `term` (already canonical) appears as a lookup key in any
  /// relation table. Every non-equal RelateCanonical outcome requires at
  /// least one side to be such a key (synonymy keys both sides; acronym /
  /// abbreviation / expansion key the short form; a hypernym closure is
  /// keyed by the general term or a synonym of it, both keys) — so two
  /// unmentioned terms relate kNone without walking any table. One hash
  /// probe; the batch matchers call it once per distinct term to
  /// pre-resolve out-of-vocabulary pairs.
  bool MentionedCanonical(const std::string& term) const {
    return key_terms_.count(term) > 0;
  }

 private:
  friend struct ThesaurusPeer;  // test oracle access to the tables

  /// Every term the bounded hypernym walk reaches from a start term, for
  /// each start term that reaches any: a closure set per term, built on the
  /// first hypernym query after an Add* (under a mutex, so concurrent const
  /// callers are safe) and read lock-free afterwards. Copies start unbuilt.
  class HypernymClosures {
   public:
    using Map =
        std::unordered_map<std::string, std::unordered_set<std::string>>;
    HypernymClosures() = default;
    HypernymClosures(const HypernymClosures&) {}
    HypernymClosures& operator=(const HypernymClosures&) {
      Invalidate();
      return *this;
    }
    void Invalidate() {
      built_.store(false, std::memory_order_relaxed);
      map_.clear();
    }
    const Map& Get(const Thesaurus& thesaurus) const;

   private:
    mutable std::mutex mutex_;
    mutable std::atomic<bool> built_{false};
    mutable Map map_;  // written only under mutex_ while !built_
  };

  std::string Canonical(std::string_view term) const;
  const std::set<std::string>* SynonymSet(const std::string& term) const;
  /// The closure of `general`: the old per-query BFS, run once per term.
  std::unordered_set<std::string> WalkHyponyms(
      const std::string& general) const;

  // term -> id of its synonym group; groups hold normalised terms.
  std::map<std::string, size_t> synonym_group_of_;
  std::vector<std::set<std::string>> synonym_groups_;
  // general -> set of direct specifics.
  std::map<std::string, std::set<std::string>> hyponyms_;
  // short form -> expansions.
  std::map<std::string, std::set<std::string>> acronyms_;
  std::map<std::string, std::set<std::string>> abbreviations_;
  // Union of all table keys, maintained by the Add* methods (synonym-group
  // merges only ever add keys, so no removal is needed).
  std::unordered_set<std::string> key_terms_;
  size_t relation_count_ = 0;
  HypernymClosures closures_;
};

}  // namespace qmatch::lingua

#endif  // QMATCH_LINGUA_THESAURUS_H_
