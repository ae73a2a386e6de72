#include "lingua/thesaurus.h"

#include "lingua/tokenize.h"

namespace qmatch::lingua {

std::string Thesaurus::Canonical(std::string_view term) const {
  return CanonicalizeLabel(term);
}

void Thesaurus::AddSynonym(std::string_view a, std::string_view b) {
  std::string ca = Canonical(a);
  std::string cb = Canonical(b);
  if (ca.empty() || cb.empty() || ca == cb) return;
  ++relation_count_;
  closures_.Invalidate();
  key_terms_.insert(ca);
  key_terms_.insert(cb);
  auto ia = synonym_group_of_.find(ca);
  auto ib = synonym_group_of_.find(cb);
  if (ia == synonym_group_of_.end() && ib == synonym_group_of_.end()) {
    size_t id = synonym_groups_.size();
    synonym_groups_.push_back({ca, cb});
    synonym_group_of_[ca] = id;
    synonym_group_of_[cb] = id;
  } else if (ia != synonym_group_of_.end() && ib == synonym_group_of_.end()) {
    synonym_groups_[ia->second].insert(cb);
    synonym_group_of_[cb] = ia->second;
  } else if (ia == synonym_group_of_.end() && ib != synonym_group_of_.end()) {
    synonym_groups_[ib->second].insert(ca);
    synonym_group_of_[ca] = ib->second;
  } else if (ia->second != ib->second) {
    // Merge the smaller group into the larger.
    size_t keep = ia->second;
    size_t drop = ib->second;
    if (synonym_groups_[keep].size() < synonym_groups_[drop].size()) {
      std::swap(keep, drop);
    }
    for (const std::string& term : synonym_groups_[drop]) {
      synonym_groups_[keep].insert(term);
      synonym_group_of_[term] = keep;
    }
    synonym_groups_[drop].clear();
  }
}

void Thesaurus::AddHypernym(std::string_view general,
                            std::string_view specific) {
  std::string g = Canonical(general);
  std::string s = Canonical(specific);
  if (g.empty() || s.empty() || g == s) return;
  ++relation_count_;
  closures_.Invalidate();
  key_terms_.insert(g);
  hyponyms_[g].insert(s);
}

void Thesaurus::AddAcronym(std::string_view acronym,
                           std::string_view expansion) {
  std::string a = Canonical(acronym);
  std::string e = Canonical(expansion);
  if (a.empty() || e.empty() || a == e) return;
  ++relation_count_;
  key_terms_.insert(a);
  acronyms_[a].insert(e);
}

void Thesaurus::AddAbbreviation(std::string_view abbrev,
                                std::string_view full) {
  std::string a = Canonical(abbrev);
  std::string f = Canonical(full);
  if (a.empty() || f.empty() || a == f) return;
  ++relation_count_;
  key_terms_.insert(a);
  abbreviations_[a].insert(f);
}

const std::set<std::string>* Thesaurus::SynonymSet(
    const std::string& term) const {
  auto it = synonym_group_of_.find(term);
  if (it == synonym_group_of_.end()) return nullptr;
  return &synonym_groups_[it->second];
}

bool Thesaurus::AreSynonyms(std::string_view a, std::string_view b) const {
  return AreSynonymsCanonical(Canonical(a), Canonical(b));
}

bool Thesaurus::AreSynonymsCanonical(const std::string& ca,
                                     const std::string& cb) const {
  if (ca == cb) return false;
  const std::set<std::string>* group = SynonymSet(ca);
  return group != nullptr && group->count(cb) > 0;
}

bool Thesaurus::IsHypernymOf(std::string_view general,
                             std::string_view specific) const {
  return IsHypernymOfCanonical(Canonical(general), Canonical(specific));
}

std::unordered_set<std::string> Thesaurus::WalkHyponyms(
    const std::string& g) const {
  // Bounded BFS down the hyponym links; synonyms of visited nodes are
  // considered equivalent.
  constexpr size_t kMaxDepth = 4;
  std::unordered_set<std::string> reached;
  std::set<std::string> frontier = {g};
  if (const std::set<std::string>* group = SynonymSet(g)) {
    frontier.insert(group->begin(), group->end());
  }
  for (size_t depth = 0; depth < kMaxDepth; ++depth) {
    std::set<std::string> next;
    for (const std::string& term : frontier) {
      auto it = hyponyms_.find(term);
      if (it == hyponyms_.end()) continue;
      for (const std::string& hypo : it->second) {
        next.insert(hypo);
        if (const std::set<std::string>* group = SynonymSet(hypo)) {
          next.insert(group->begin(), group->end());
        }
      }
    }
    if (next.empty()) break;
    reached.insert(next.begin(), next.end());
    frontier = std::move(next);
  }
  return reached;
}

const Thesaurus::HypernymClosures::Map& Thesaurus::HypernymClosures::Get(
    const Thesaurus& thesaurus) const {
  if (built_.load(std::memory_order_acquire)) return map_;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!built_.load(std::memory_order_relaxed)) {
    // A walk starts from the general term and its synonyms, so every
    // member of a synonym group shares one closure.
    for (const auto& entry : thesaurus.hyponyms_) {
      const std::string& general = entry.first;
      if (map_.count(general) > 0) continue;
      std::unordered_set<std::string> closure =
          thesaurus.WalkHyponyms(general);
      if (const std::set<std::string>* group = thesaurus.SynonymSet(general)) {
        for (const std::string& member : *group) map_.emplace(member, closure);
      }
      map_.emplace(general, std::move(closure));
    }
    built_.store(true, std::memory_order_release);
  }
  return map_;
}

bool Thesaurus::IsHypernymOfCanonical(const std::string& g,
                                      const std::string& s) const {
  if (g.empty() || s.empty() || g == s) return false;
  const HypernymClosures::Map& closures = closures_.Get(*this);
  auto it = closures.find(g);
  return it != closures.end() && it->second.count(s) > 0;
}

std::vector<std::string> Thesaurus::RelatedCanonicals(
    const std::string& term) const {
  if (!MentionedCanonical(term)) return {};
  std::set<std::string> related;
  auto add_group = [&](const std::string& member) {
    if (const std::set<std::string>* group = SynonymSet(member)) {
      related.insert(group->begin(), group->end());
    }
  };
  add_group(term);
  for (const auto* table : {&acronyms_, &abbreviations_}) {
    auto it = table->find(term);
    if (it == table->end()) continue;
    for (const std::string& expansion : it->second) {
      related.insert(expansion);
      add_group(expansion);
    }
  }
  const HypernymClosures::Map& closures = closures_.Get(*this);
  if (auto it = closures.find(term); it != closures.end()) {
    related.insert(it->second.begin(), it->second.end());
  }
  related.erase(term);
  return {related.begin(), related.end()};
}

std::optional<std::string> Thesaurus::Expand(std::string_view term) const {
  std::string t = Canonical(term);
  if (auto it = acronyms_.find(t); it != acronyms_.end() && !it->second.empty()) {
    return *it->second.begin();
  }
  if (auto it = abbreviations_.find(t);
      it != abbreviations_.end() && !it->second.empty()) {
    return *it->second.begin();
  }
  return std::nullopt;
}

TermRelation Thesaurus::Relate(std::string_view a, std::string_view b) const {
  return RelateCanonical(Canonical(a), Canonical(b));
}

std::optional<std::string> Thesaurus::ExpandCanonical(
    const std::string& term) const {
  if (!MentionedCanonical(term)) return std::nullopt;
  if (auto it = acronyms_.find(term);
      it != acronyms_.end() && !it->second.empty()) {
    return *it->second.begin();
  }
  if (auto it = abbreviations_.find(term);
      it != abbreviations_.end() && !it->second.empty()) {
    return *it->second.begin();
  }
  return std::nullopt;
}

TermRelation Thesaurus::RelateCanonical(const std::string& ca,
                                        const std::string& cb) const {
  if (ca.empty() || cb.empty()) return TermRelation::kNone;
  if (ca == cb) return TermRelation::kEqual;

  // Two out-of-vocabulary terms cannot relate (see MentionedCanonical):
  // skip the table walks entirely. This is the hot case for domain
  // schemas, whose labels rarely appear in the thesaurus. Past it, each
  // lookup runs only when the term its table is keyed by is mentioned
  // (synonymy keys both sides), which changes no answer.
  const bool mentioned_a = MentionedCanonical(ca);
  const bool mentioned_b = MentionedCanonical(cb);
  if (!mentioned_a && !mentioned_b) return TermRelation::kNone;

  if (mentioned_a && mentioned_b && AreSynonymsCanonical(ca, cb)) {
    return TermRelation::kSynonym;
  }

  // Acronyms: direct, or the expansion is a synonym of the other side.
  auto expands_to = [this](const std::map<std::string, std::set<std::string>>&
                               table,
                           const std::string& short_form,
                           const std::string& long_form) {
    auto it = table.find(short_form);
    if (it == table.end()) return false;
    if (it->second.count(long_form) > 0) return true;
    for (const std::string& expansion : it->second) {
      if (AreSynonymsCanonical(expansion, long_form)) return true;
    }
    return false;
  };
  if (mentioned_a && expands_to(acronyms_, ca, cb)) {
    return TermRelation::kAcronym;
  }
  if (mentioned_b && expands_to(acronyms_, cb, ca)) {
    return TermRelation::kExpansion;
  }
  if (mentioned_a && expands_to(abbreviations_, ca, cb)) {
    return TermRelation::kAbbreviation;
  }
  if (mentioned_b && expands_to(abbreviations_, cb, ca)) {
    return TermRelation::kExpansion;
  }

  if (mentioned_a && IsHypernymOfCanonical(ca, cb)) {
    return TermRelation::kHypernym;
  }
  if (mentioned_b && IsHypernymOfCanonical(cb, ca)) {
    return TermRelation::kHyponym;
  }

  return TermRelation::kNone;
}

}  // namespace qmatch::lingua
