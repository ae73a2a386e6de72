#include "lingua/name_match.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "common/string_util.h"
#include "lingua/string_sim.h"
#include "lingua/tokenize.h"
#include "obs/obs.h"

namespace qmatch::lingua {

PreparedLabel NameMatcher::Prepare(std::string_view label) {
  PreparedLabel prepared;
  prepared.tokens = TokenizeLabel(label);
  for (std::string& token : prepared.tokens) {
    token = SingularizeToken(token);
  }
  prepared.canonical = Join(prepared.tokens, " ");
  return prepared;
}

double NameMatcher::TokenSimilarity(const std::string& a, const std::string& b,
                                    bool* exact_kind) const {
  *exact_kind = false;
  if (a == b) {
    *exact_kind = true;
    return 1.0;
  }
  if (thesaurus_ != nullptr) {
    switch (thesaurus_->RelateCanonical(a, b)) {
      case TermRelation::kEqual:
      case TermRelation::kSynonym:
        *exact_kind = true;
        return options_.synonym_score;
      case TermRelation::kHypernym:
      case TermRelation::kHyponym:
        return options_.hypernym_score;
      case TermRelation::kAcronym:
      case TermRelation::kExpansion:
        return options_.acronym_score;
      case TermRelation::kAbbreviation:
        return options_.abbreviation_score;
      case TermRelation::kNone:
        break;
    }
    // Try expanding one side ("addr" -> "address") and re-comparing.
    for (int side = 0; side < 2; ++side) {
      const std::string& short_form = side == 0 ? a : b;
      const std::string& other = side == 0 ? b : a;
      if (auto expansion = thesaurus_->ExpandCanonical(short_form)) {
        if (*expansion == other || thesaurus_->AreSynonymsCanonical(
                                       *expansion, other)) {
          return options_.abbreviation_score;
        }
      }
    }
  }
  double fuzzy = BlendedSimilarity(a, b);
  return fuzzy >= options_.fuzzy_floor ? fuzzy : 0.0;
}

namespace {

/// NameMatcher::Match once the labels are known non-empty and different:
/// the whole-label thesaurus relation decides first (it handles multi-word
/// terms such as "bill to" vs "billing address" and acronyms like "po");
/// otherwise a bipartite best-pair token comparison, averaged over both
/// directions (CUPID-style name similarity). `sim(forward, f, t, &exact)`
/// is the similarity of the source label's token f to the target label's
/// token t when `forward`, else of the target's token f to the source's
/// token t.
template <class Sim>
LabelMatch ScoreLabels(TermRelation relation, size_t source_tokens,
                       size_t target_tokens, const NameMatchOptions& options,
                       Sim&& sim) {
  switch (relation) {
    case TermRelation::kEqual:
    case TermRelation::kSynonym:
      return {LabelMatchClass::kExact, options.synonym_score};
    case TermRelation::kHypernym:
    case TermRelation::kHyponym:
      return {LabelMatchClass::kRelaxed, options.hypernym_score};
    case TermRelation::kAcronym:
    case TermRelation::kExpansion:
      return {LabelMatchClass::kRelaxed, options.acronym_score};
    case TermRelation::kAbbreviation:
      return {LabelMatchClass::kRelaxed, options.abbreviation_score};
    case TermRelation::kNone:
      break;
  }
  bool all_exact = true;
  auto directional = [&](size_t from, size_t to, bool forward) {
    double sum = 0.0;
    for (size_t f = 0; f < from; ++f) {
      double best = 0.0;
      bool best_exact = false;
      for (size_t t = 0; t < to; ++t) {
        bool exact_kind = false;
        const double s = sim(forward, f, t, &exact_kind);
        if (s > best) {
          best = s;
          best_exact = exact_kind;
        }
      }
      if (!best_exact || best < 1.0) all_exact = false;
      sum += best;
    }
    return from == 0 ? 0.0 : sum / static_cast<double>(from);
  };
  const double score = (directional(source_tokens, target_tokens, true) +
                        directional(target_tokens, source_tokens, false)) /
                       2.0;
  if (score >= options.exact_threshold && all_exact) {
    return {LabelMatchClass::kExact, 1.0};
  }
  if (score >= options.relaxed_threshold) {
    return {LabelMatchClass::kRelaxed, score};
  }
  return {LabelMatchClass::kNone, score};
}

}  // namespace

LabelMatch NameMatcher::Match(const PreparedLabel& a,
                              const PreparedLabel& b) const {
  if (a.canonical.empty() || b.canonical.empty()) {
    return {LabelMatchClass::kNone, 0.0};
  }
  if (a.canonical == b.canonical) return {LabelMatchClass::kExact, 1.0};
  const TermRelation relation =
      thesaurus_ != nullptr
          ? thesaurus_->RelateCanonical(a.canonical, b.canonical)
          : TermRelation::kNone;
  return ScoreLabels(
      relation, a.tokens.size(), b.tokens.size(), options_,
      [&](bool forward, size_t f, size_t t, bool* exact) {
        return forward ? TokenSimilarity(a.tokens[f], b.tokens[t], exact)
                       : TokenSimilarity(b.tokens[f], a.tokens[t], exact);
      });
}

LabelMatch NameMatcher::Match(std::string_view a, std::string_view b) const {
  return Match(Prepare(a), Prepare(b));
}

// ---------------------------------------------------------------------------
// TokenMemo
// ---------------------------------------------------------------------------

TokenMemo& TokenMemo::operator=(const TokenMemo& /*other*/) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  Clear();
  return *this;
}

void TokenMemo::Clear() {
  ids_.clear();
  token_text_.clear();
  rows_.clear();
  labels_.clear();
  canonical_ids_.clear();
  canonicals_.clear();
  ++generation_;
}

uint32_t TokenMemo::InternCanonical(const std::string& canonical) {
  auto [it, inserted] = canonical_ids_.try_emplace(
      canonical, static_cast<uint32_t>(canonicals_.size()));
  if (inserted) canonicals_.emplace_back();
  return it->second;
}

bool TokenMemo::Intern(const Thesaurus* thesaurus,
                       const std::vector<std::string>& labels,
                       size_t max_tokens, size_t max_labels) {
  for (const std::string& label : labels) {
    if (labels_.count(label) > 0) continue;
    if (labels_.size() >= max_labels) return false;
    const PreparedLabel prepared = NameMatcher::Prepare(label);
    Label entry;
    for (const std::string& token : prepared.tokens) {
      auto it = ids_.find(token);
      if (it == ids_.end()) {
        if (ids_.size() >= max_tokens) return false;
        it = ids_.emplace(token, static_cast<uint32_t>(ids_.size())).first;
        token_text_.push_back(&it->first);
        rows_.emplace_back();
      }
      entry.tokens.push_back(it->second);
    }
    entry.canonical = InternCanonical(prepared.canonical);
    if (!canonicals_[entry.canonical].resolved) {
      // Empty unless the canonical is thesaurus-mentioned.
      const std::string& term = prepared.canonical;
      std::vector<Relation> related;
      if (thesaurus != nullptr) {
        for (const std::string& other : thesaurus->RelatedCanonicals(term)) {
          related.push_back({InternCanonical(other),
                             thesaurus->RelateCanonical(term, other),
                             thesaurus->RelateCanonical(other, term)});
        }
      }
      std::sort(related.begin(), related.end(),
                [](const Relation& x, const Relation& y) {
                  return x.canonical < y.canonical;
                });
      Canonical& canonical = canonicals_[entry.canonical];
      canonical.resolved = true;
      canonical.related = std::move(related);
    }
    labels_.emplace(label, std::move(entry));
  }
  return true;
}

bool TokenMemo::FillSide(const std::vector<std::string>& labels, Side& side,
                         std::vector<uint32_t>& side_of) const {
  side = Side{};
  side_of.assign(ids_.size(), kNoId);
  side.canonical.reserve(labels.size());
  side.token_begin.reserve(labels.size() + 1);
  side.related_begin.reserve(labels.size() + 1);
  side.token_begin.push_back(0);
  side.related_begin.push_back(0);
  for (const std::string& label : labels) {
    auto it = labels_.find(label);
    if (it == labels_.end()) return false;
    const Label& entry = it->second;
    const Canonical& canonical = canonicals_[entry.canonical];
    side.canonical.push_back(entry.canonical);
    for (const uint32_t id : entry.tokens) {
      if (side_of[id] == kNoId) {
        side_of[id] = static_cast<uint32_t>(side.vocabulary.size());
        side.vocabulary.push_back(id);
      }
      side.tokens.push_back(side_of[id]);
    }
    side.token_begin.push_back(static_cast<uint32_t>(side.tokens.size()));
    side.related.insert(side.related.end(), canonical.related.begin(),
                        canonical.related.end());
    side.related_begin.push_back(static_cast<uint32_t>(side.related.size()));
  }
  return true;
}

bool TokenMemo::Fill(const std::vector<std::string>& source,
                     const std::vector<std::string>& target,
                     View& view) const {
  std::vector<uint32_t> source_of;
  std::vector<uint32_t> target_of;
  if (!FillSide(source, view.source, source_of) ||
      !FillSide(target, view.target, target_of)) {
    return false;
  }
  const size_t ns = view.source.vocabulary.size();
  const size_t nt = view.target.vocabulary.size();
  view.sim.assign(ns * nt, 0.0);
  view.exact.assign(ns * nt, 0);
  view.unscored.assign(ns * nt, 1);
  view.hits = 0;
  for (size_t s = 0; s < ns; ++s) {
    const Row& row = rows_[view.source.vocabulary[s]];
    for (size_t t = 0; t < nt; ++t) {
      const uint32_t tid = view.target.vocabulary[t];
      if (tid / 64 < row.scored.size() &&
          ((row.scored[tid / 64] >> (tid % 64)) & 1) != 0) {
        view.unscored[s * nt + t] = 0;
        ++view.hits;
      }
    }
    for (const Entry& entry : row.nonzero) {
      const uint32_t t = target_of[entry.target];
      if (t == kNoId) continue;
      view.sim[s * nt + t] = entry.score;
      view.exact[s * nt + t] = entry.exact;
    }
  }
  if (view.hits != ns * nt) {
    for (Side* side : {&view.source, &view.target}) {
      side->text.reserve(side->vocabulary.size());
      for (const uint32_t id : side->vocabulary) {
        side->text.push_back(*token_text_[id]);
      }
    }
  }
  view.generation = generation_;
  return true;
}

TokenMemo::View TokenMemo::Resolve(const Thesaurus* thesaurus,
                                   const std::vector<std::string>& source,
                                   const std::vector<std::string>& target) {
  const size_t relation_count =
      thesaurus != nullptr ? thesaurus->RelationCount() : 0;
  View view;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (relation_count == relation_count_ && Fill(source, target, view)) {
      return view;
    }
  }
  auto intern = [&](TokenMemo& memo, size_t max_tokens, size_t max_labels) {
    return memo.Intern(thesaurus, source, max_tokens, max_labels) &&
           memo.Intern(thesaurus, target, max_tokens, max_labels);
  };
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (relation_count != relation_count_) {
    view.cleared = !ids_.empty() || !labels_.empty();
    Clear();
    relation_count_ = relation_count;
  }
  if (!intern(*this, kMaxTokens, kMaxLabels)) {
    Clear();
    view.cleared = true;
    if (!intern(*this, kMaxTokens, kMaxLabels)) {
      // The labels alone pass a cap: resolve them in a private memo and
      // remember nothing.
      Clear();
      lock.unlock();
      TokenMemo own;
      intern(own, SIZE_MAX, SIZE_MAX);
      own.Fill(source, target, view);
      view.memoised = false;
      return view;
    }
  }
  Fill(source, target, view);
  return view;
}

void TokenMemo::Publish(const View& view) {
  if (!view.memoised) return;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (view.generation != generation_) return;
  const size_t nt = view.target.vocabulary.size();
  for (size_t s = 0; s < view.source.vocabulary.size(); ++s) {
    Row& row = rows_[view.source.vocabulary[s]];
    for (size_t t = 0; t < nt; ++t) {
      const size_t cell = s * nt + t;
      if (view.unscored[cell] == 0) continue;
      const uint32_t tid = view.target.vocabulary[t];
      if (tid / 64 >= row.scored.size()) row.scored.resize(tid / 64 + 1, 0);
      uint64_t& word = row.scored[tid / 64];
      const uint64_t bit = uint64_t{1} << (tid % 64);
      if ((word & bit) != 0) continue;  // published meanwhile, same value
      word |= bit;
      // Anything but +0.0 (the scorer's fill value) is kept, bit for bit.
      if (std::bit_cast<uint64_t>(view.sim[cell]) != 0) {
        row.nonzero.push_back(Entry{tid, view.exact[cell], view.sim[cell]});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PairwiseLabelScorer
// ---------------------------------------------------------------------------

namespace {

/// Compressed rows: for each key < `keys`, the values of the (key, value)
/// pairs `emit` produces, in emission order.
struct Postings {
  std::vector<uint32_t> begin;
  std::vector<uint32_t> values;

  template <class Emit>
  Postings(size_t keys, Emit&& emit) : begin(keys + 1, 0) {
    emit([&](uint32_t key, uint32_t) { ++begin[key + 1]; });
    for (size_t k = 0; k < keys; ++k) begin[k + 1] += begin[k];
    values.resize(begin[keys]);
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    emit([&](uint32_t key, uint32_t value) { values[cursor[key]++] = value; });
  }

  template <class Visit>
  void ForEach(uint32_t key, Visit&& visit) const {
    for (uint32_t k = begin[key]; k < begin[key + 1]; ++k) visit(values[k]);
  }
};

}  // namespace

PairwiseLabelScorer::PairwiseLabelScorer(
    const NameMatcher& matcher, const std::vector<std::string>& source_labels,
    const std::vector<std::string>& target_labels, ThreadPool* pool) {
  TokenMemo::View view = matcher.memo_.Resolve(
      matcher.thesaurus(), source_labels, target_labels);
  const TokenMemo::Side& source = view.source;
  const TokenMemo::Side& target = view.target;
  auto run = [&](size_t count, const std::function<void(size_t)>& body) {
    if (pool != nullptr && pool->worker_count() > 0) {
      pool->ParallelFor(count, body);
    } else {
      for (size_t k = 0; k < count; ++k) body(k);
    }
  };

  // Token-pair table: the cells the memo did not hold are scored, one
  // source-token row per task, and published.
  const size_t ns = source.vocabulary.size();
  const size_t nt = target.vocabulary.size();
  if (view.hits != ns * nt) {
    run(ns, [&](size_t s) {
      for (size_t t = 0; t < nt; ++t) {
        if (view.unscored[s * nt + t] == 0) continue;
        bool exact = false;
        view.sim[s * nt + t] =
            matcher.TokenSimilarity(source.text[s], target.text[t], &exact);
        view.exact[s * nt + t] = exact ? 1 : 0;
      }
    });
    matcher.memo_.Publish(view);
  }
  QMATCH_COUNTER_ADD("lingua.token_pairs_scored", ns * nt - view.hits);
  QMATCH_COUNTER_ADD("lingua.token_pairs_memo_hits", view.hits);
  QMATCH_COUNTER_ADD("lingua.token_memo_clears", view.cleared ? 1 : 0);

  const NameMatchOptions& options = matcher.options();
  // A pair whose token pairs all score zero has token-set score +0.0 and
  // is never all-exact, so only the relaxed threshold decides its class.
  background_ = {0.0 >= options.relaxed_threshold ? LabelMatchClass::kRelaxed
                                                  : LabelMatchClass::kNone,
                 0.0};

  // The join's indexes over the target labels: token -> labels holding it,
  // canonical -> labels, thesaurus-related canonical -> labels relating to
  // it; and per source token, the target tokens it scores nonzero with.
  const auto ml = static_cast<uint32_t>(target.canonical.size());
  auto has_tokens = [](const TokenMemo::Side& side, size_t label) {
    return side.token_begin[label] != side.token_begin[label + 1];
  };
  const Postings by_token(nt, [&](auto&& add) {
    for (uint32_t b = 0; b < ml; ++b) {
      for (uint32_t k = target.token_begin[b]; k < target.token_begin[b + 1];
           ++k) {
        add(target.tokens[k], b);
      }
    }
  });
  using Keyed = std::pair<uint32_t, uint32_t>;  // (canonical id, label)
  std::vector<Keyed> by_canonical;
  std::vector<Keyed> by_relation;
  for (uint32_t b = 0; b < ml; ++b) {
    by_canonical.emplace_back(target.canonical[b], b);
    for (uint32_t k = target.related_begin[b]; k < target.related_begin[b + 1];
         ++k) {
      by_relation.emplace_back(target.related[k].canonical, b);
    }
  }
  std::sort(by_canonical.begin(), by_canonical.end());
  std::sort(by_relation.begin(), by_relation.end());
  auto for_key = [](const std::vector<Keyed>& index, uint32_t key,
                    auto&& visit) {
    for (auto it = std::lower_bound(index.begin(), index.end(), Keyed{key, 0});
         it != index.end() && it->first == key; ++it) {
      visit(it->second);
    }
  };
  const Postings nonzero(ns, [&](auto&& add) {
    for (uint32_t s = 0; s < ns; ++s) {
      for (uint32_t t = 0; t < nt; ++t) {
        if (view.sim[s * nt + t] > 0.0) add(s, t);
      }
    }
  });

  // The whole-label thesaurus relation, cached per mentioned canonical: by
  // RelatedCanonicals' guarantee, a pair found in neither label's list
  // relates kNone.
  auto find_relation = [](const TokenMemo::Side& side, size_t label,
                          uint32_t canonical) -> const TokenMemo::Relation* {
    const auto first = side.related.begin() + side.related_begin[label];
    const auto last = side.related.begin() + side.related_begin[label + 1];
    const auto it = std::lower_bound(
        first, last, canonical,
        [](const TokenMemo::Relation& r, uint32_t c) { return r.canonical < c; });
    return it != last && it->canonical == canonical ? &*it : nullptr;
  };
  auto relation = [&](size_t a, size_t b) {
    if (const auto* r = find_relation(source, a, target.canonical[b])) {
      return r->to;
    }
    if (const auto* r = find_relation(target, b, source.canonical[a])) {
      return r->from;
    }
    return TermRelation::kNone;
  };

  // NameMatcher::Match on the resolved labels.
  auto score = [&](size_t a, size_t b) -> LabelMatch {
    if (!has_tokens(source, a) || !has_tokens(target, b)) {
      return {LabelMatchClass::kNone, 0.0};
    }
    if (source.canonical[a] == target.canonical[b]) {
      return {LabelMatchClass::kExact, 1.0};
    }
    const uint32_t* at = source.tokens.data() + source.token_begin[a];
    const uint32_t* bt = target.tokens.data() + target.token_begin[b];
    return ScoreLabels(
        relation(a, b), source.token_begin[a + 1] - source.token_begin[a],
        target.token_begin[b + 1] - target.token_begin[b], options,
        [&](bool forward, size_t f, size_t t, bool* exact) {
          const size_t slot = forward ? size_t{at[f]} * nt + bt[t]
                                      : size_t{at[t]} * nt + bt[f];
          *exact = view.exact[slot] != 0;
          return view.sim[slot];
        });
  };

  // Labels without tokens always match {kNone, 0.0}: candidates of every
  // pair while that differs from the background.
  std::vector<uint32_t> tokenless_targets;
  const bool background_none = background_.cls == LabelMatchClass::kNone;
  for (uint32_t b = 0; b < ml && !background_none; ++b) {
    if (!has_tokens(target, b)) tokenless_targets.push_back(b);
  }

  rows_.resize(source.canonical.size());
  run(rows_.size(), [&](size_t a) {
    std::vector<uint32_t> candidates;
    auto add = [&](uint32_t b) { candidates.push_back(b); };
    if (!has_tokens(source, a)) {
      if (!background_none) {
        for (uint32_t b = 0; b < ml; ++b) candidates.push_back(b);
      }
    } else {
      for (uint32_t k = source.token_begin[a]; k < source.token_begin[a + 1];
           ++k) {
        nonzero.ForEach(source.tokens[k],
                        [&](uint32_t t) { by_token.ForEach(t, add); });
      }
      for_key(by_canonical, source.canonical[a], add);
      for (uint32_t k = source.related_begin[a]; k < source.related_begin[a + 1];
           ++k) {
        for_key(by_canonical, source.related[k].canonical, add);
      }
      for_key(by_relation, source.canonical[a], add);
      candidates.insert(candidates.end(), tokenless_targets.begin(),
                        tokenless_targets.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<Scored>& row = rows_[a];
    row.reserve(candidates.size());
    for (const uint32_t b : candidates) row.push_back({b, score(a, b)});
  });
  for (const std::vector<Scored>& row : rows_) scored_ += row.size();
}

LabelMatch PairwiseLabelScorer::Match(size_t i, size_t j) const {
  const std::vector<Scored>& row = rows_[i];
  const auto it = std::lower_bound(
      row.begin(), row.end(), j,
      [](const Scored& scored, size_t target) { return scored.target < target; });
  return it != row.end() && it->target == j ? it->match : background_;
}

}  // namespace qmatch::lingua
