#include "lingua/name_match.h"

#include <algorithm>
#include <bit>
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

LabelMatch NameMatcher::Match(const PreparedLabel& a,
                              const PreparedLabel& b) const {
  if (a.canonical.empty() || b.canonical.empty()) {
    return {LabelMatchClass::kNone, 0.0};
  }
  if (a.canonical == b.canonical) return {LabelMatchClass::kExact, 1.0};

  // Whole-label thesaurus relation (handles multi-word terms such as
  // "bill to" vs "billing address" and acronyms like "po").
  if (thesaurus_ != nullptr) {
    switch (thesaurus_->RelateCanonical(a.canonical, b.canonical)) {
      case TermRelation::kEqual:
      case TermRelation::kSynonym:
        return {LabelMatchClass::kExact, options_.synonym_score};
      case TermRelation::kHypernym:
      case TermRelation::kHyponym:
        return {LabelMatchClass::kRelaxed, options_.hypernym_score};
      case TermRelation::kAcronym:
      case TermRelation::kExpansion:
        return {LabelMatchClass::kRelaxed, options_.acronym_score};
      case TermRelation::kAbbreviation:
        return {LabelMatchClass::kRelaxed, options_.abbreviation_score};
      case TermRelation::kNone:
        break;
    }
  }

  // Bipartite best-pair token comparison, averaged over both directions
  // (CUPID-style name similarity).
  bool all_exact = true;
  auto directional = [&](const std::vector<std::string>& from,
                         const std::vector<std::string>& to) {
    double sum = 0.0;
    for (const std::string& ft : from) {
      double best = 0.0;
      bool best_exact = false;
      for (const std::string& tt : to) {
        bool exact_kind = false;
        double s = TokenSimilarity(ft, tt, &exact_kind);
        if (s > best) {
          best = s;
          best_exact = exact_kind;
        }
      }
      if (!best_exact || best < 1.0) all_exact = false;
      sum += best;
    }
    return from.empty() ? 0.0 : sum / static_cast<double>(from.size());
  };
  double score = (directional(a.tokens, b.tokens) +
                  directional(b.tokens, a.tokens)) /
                 2.0;

  if (score >= options_.exact_threshold && all_exact) {
    return {LabelMatchClass::kExact, 1.0};
  }
  if (score >= options_.relaxed_threshold) {
    return {LabelMatchClass::kRelaxed, score};
  }
  return {LabelMatchClass::kNone, score};
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

uint32_t TokenMemo::Find(const std::string& token) const {
  auto it = ids_.find(token);
  return it == ids_.end() ? kNoId : it->second;
}

void TokenMemo::Clear() {
  ids_.clear();
  rows_.clear();
}

uint64_t TokenMemo::Read(const std::vector<std::string>& source,
                         const std::vector<std::string>& target,
                         size_t relation_count, double* sim, uint8_t* exact,
                         uint8_t* unscored) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  if (relation_count != relation_count_ || ids_.empty()) return 0;
  const size_t nt = target.size();
  std::vector<uint32_t> target_ids(nt);
  // Memo id -> target slot, for copying a row's nonzero entries.
  std::vector<uint32_t> slot_of(ids_.size(), kNoId);
  for (size_t t = 0; t < nt; ++t) {
    target_ids[t] = Find(target[t]);
    if (target_ids[t] != kNoId) {
      slot_of[target_ids[t]] = static_cast<uint32_t>(t);
    }
  }
  uint64_t hits = 0;
  for (size_t s = 0; s < source.size(); ++s) {
    const uint32_t id = Find(source[s]);
    if (id == kNoId) continue;
    const Row& row = rows_[id];
    for (size_t t = 0; t < nt; ++t) {
      const uint32_t tid = target_ids[t];
      if (tid == kNoId || tid / 64 >= row.scored.size()) continue;
      if ((row.scored[tid / 64] >> (tid % 64)) & 1) {
        unscored[s * nt + t] = 0;
        ++hits;
      }
    }
    for (const Entry& entry : row.nonzero) {
      const uint32_t t = slot_of[entry.target];
      if (t == kNoId) continue;
      sim[s * nt + t] = entry.score;
      exact[s * nt + t] = entry.exact;
    }
  }
  return hits;
}

bool TokenMemo::InternAll(const std::vector<std::string>& source,
                          const std::vector<std::string>& target,
                          std::vector<uint32_t>& source_ids,
                          std::vector<uint32_t>& target_ids) {
  auto intern = [&](const std::vector<std::string>& tokens,
                    std::vector<uint32_t>& ids) {
    ids.clear();
    for (const std::string& token : tokens) {
      if (ids_.size() >= kMaxTokens && ids_.count(token) == 0) return false;
      ids.push_back(
          ids_.try_emplace(token, static_cast<uint32_t>(ids_.size()))
              .first->second);
    }
    return true;
  };
  const bool fits = intern(source, source_ids) && intern(target, target_ids);
  rows_.resize(ids_.size());
  return fits;
}

bool TokenMemo::Publish(const std::vector<std::string>& source,
                        const std::vector<std::string>& target,
                        size_t relation_count, const double* sim,
                        const uint8_t* exact, const uint8_t* scored) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  bool cleared = false;
  if (relation_count != relation_count_) {
    cleared = !ids_.empty();
    Clear();
    relation_count_ = relation_count;
  }
  std::vector<uint32_t> source_ids;
  std::vector<uint32_t> target_ids;
  if (!InternAll(source, target, source_ids, target_ids)) {
    Clear();
    cleared = true;
    // A single scorer whose own vocabulary passes the cap is not memoised.
    if (!InternAll(source, target, source_ids, target_ids)) {
      Clear();
      return true;
    }
  }
  const size_t nt = target.size();
  for (size_t s = 0; s < source.size(); ++s) {
    Row& row = rows_[source_ids[s]];
    for (size_t t = 0; t < nt; ++t) {
      if (scored[s * nt + t] == 0) continue;
      const uint32_t tid = target_ids[t];
      if (tid / 64 >= row.scored.size()) row.scored.resize(tid / 64 + 1, 0);
      uint64_t& word = row.scored[tid / 64];
      const uint64_t bit = uint64_t{1} << (tid % 64);
      if ((word & bit) != 0) continue;  // published meanwhile, same value
      word |= bit;
      // Anything but +0.0 (the scorer's fill value) is kept, bit for bit.
      if (std::bit_cast<uint64_t>(sim[s * nt + t]) != 0) {
        row.nonzero.push_back(Entry{tid, exact[s * nt + t], sim[s * nt + t]});
      }
    }
  }
  return cleared;
}

// ---------------------------------------------------------------------------
// PairwiseLabelScorer
// ---------------------------------------------------------------------------

namespace {

size_t InternToken(const std::string& token, std::vector<std::string>& pool,
                   std::unordered_map<std::string, size_t>& index) {
  auto it = index.find(token);
  if (it != index.end()) return it->second;
  size_t id = pool.size();
  pool.push_back(token);
  index.emplace(token, id);
  return id;
}

}  // namespace

PairwiseLabelScorer::PairwiseLabelScorer(
    const NameMatcher& matcher, const std::vector<std::string>& source_labels,
    const std::vector<std::string>& target_labels, ThreadPool* pool)
    : matcher_(matcher) {
  using Index = std::unordered_map<std::string, size_t>;
  Index source_index;
  Index target_index;
  // Canonical-form pool shared by both sides: two labels are string-equal
  // iff they intern to the same id, so the hot Match path compares ints.
  Index canonical_index;
  const Thesaurus* thesaurus = matcher.thesaurus();
  auto intern_label = [&](const std::string& label,
                          std::vector<std::string>& token_pool,
                          Index& token_index) {
    PreparedLabel prepared = NameMatcher::Prepare(label);
    InternedLabel interned;
    interned.canonical = std::move(prepared.canonical);
    for (const std::string& token : prepared.tokens) {
      interned.token_ids.push_back(InternToken(token, token_pool, token_index));
    }
    interned.canonical_id =
        canonical_index.try_emplace(interned.canonical, canonical_index.size())
            .first->second;
    interned.mentioned =
        thesaurus != nullptr && thesaurus->MentionedCanonical(interned.canonical);
    return interned;
  };
  source_.reserve(source_labels.size());
  for (const std::string& label : source_labels) {
    source_.push_back(intern_label(label, source_tokens_, source_index));
  }
  target_.reserve(target_labels.size());
  for (const std::string& label : target_labels) {
    target_.push_back(intern_label(label, target_tokens_, target_index));
  }

  // Token-similarity table: remembered slots come from the matcher's memo,
  // the rest are scored one source-token row per task and published.
  const size_t nt = target_tokens_.size();
  const size_t cells = source_tokens_.size() * nt;
  token_sim_.assign(cells, 0.0);
  token_exact_.assign(cells, 0);
  std::vector<uint8_t> unscored(cells, 1);
  const size_t relation_count =
      thesaurus != nullptr ? thesaurus->RelationCount() : 0;
  TokenMemo& memo = matcher.memo_;
  const uint64_t hits =
      memo.Read(source_tokens_, target_tokens_, relation_count,
                token_sim_.data(), token_exact_.data(), unscored.data());
  auto fill_token_row = [&](size_t s) {
    for (size_t t = 0; t < nt; ++t) {
      if (unscored[s * nt + t] == 0) continue;
      bool exact = false;
      token_sim_[s * nt + t] = matcher_.TokenSimilarity(
          source_tokens_[s], target_tokens_[t], &exact);
      token_exact_[s * nt + t] = exact ? 1 : 0;
    }
  };
  [[maybe_unused]] bool cleared = false;
  if (hits != cells) {
    if (pool != nullptr && pool->worker_count() > 0) {
      pool->ParallelFor(source_tokens_.size(), fill_token_row);
    } else {
      for (size_t s = 0; s < source_tokens_.size(); ++s) fill_token_row(s);
    }
    cleared = memo.Publish(source_tokens_, target_tokens_, relation_count,
                           token_sim_.data(), token_exact_.data(),
                           unscored.data());
  }
  QMATCH_COUNTER_ADD("lingua.token_pairs_scored", cells - hits);
  QMATCH_COUNTER_ADD("lingua.token_pairs_memo_hits", hits);
  QMATCH_COUNTER_ADD("lingua.token_memo_clears", cleared ? 1 : 0);

  // Skip bitsets: a source label relates to every target token that has
  // nonzero similarity to one of its tokens.
  const NameMatchOptions& options = matcher_.options();
  skip_enabled_ =
      options.relaxed_threshold > 0.0 && options.exact_threshold > 0.0;
  words_ = (nt + 63) / 64;
  related_.assign(source_.size() * words_, 0);
  for (size_t i = 0; i < source_.size(); ++i) {
    uint64_t* bits = related_.data() + i * words_;
    for (size_t s : source_[i].token_ids) {
      for (size_t t = 0; t < nt; ++t) {
        if (token_sim_[s * nt + t] > 0.0) {
          bits[t / 64] |= uint64_t{1} << (t % 64);
        }
      }
    }
  }
}

bool PairwiseLabelScorer::Related(size_t i, const InternedLabel& b) const {
  const uint64_t* bits = related_.data() + i * words_;
  for (size_t t : b.token_ids) {
    if ((bits[t / 64] >> (t % 64)) & 1) return true;
  }
  return false;
}

LabelMatch PairwiseLabelScorer::Match(size_t i, size_t j,
                                      uint64_t* skipped) const {
  const InternedLabel& a = source_[i];
  const InternedLabel& b = target_[j];
  const NameMatchOptions& options = matcher_.options();
  if (a.canonical.empty() || b.canonical.empty()) {
    return {LabelMatchClass::kNone, 0.0};
  }
  if (a.canonical_id == b.canonical_id) return {LabelMatchClass::kExact, 1.0};

  // Whole-label thesaurus relation — skipped when neither canonical is
  // mentioned in the thesaurus, where RelateCanonical is kNone by
  // construction (see Thesaurus::MentionedCanonical). If, in addition, no
  // token pair of the two labels has nonzero similarity, every best-token
  // score below is 0.0, the token-set score is exactly 0.0 and (both
  // thresholds being positive) the pair classifies {kNone, 0.0}: return
  // that without scoring.
  const bool mentioned = a.mentioned || b.mentioned;
  if (!mentioned && skip_enabled_ && !Related(i, b)) {
    if (skipped != nullptr) ++*skipped;
    return {LabelMatchClass::kNone, 0.0};
  }
  if (const Thesaurus* thesaurus = mentioned ? matcher_.thesaurus() : nullptr) {
    switch (thesaurus->RelateCanonical(a.canonical, b.canonical)) {
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
  }

  const size_t nt = target_tokens_.size();
  bool all_exact = true;
  auto directional = [&](const std::vector<size_t>& from,
                         const std::vector<size_t>& to, bool forward) {
    double sum = 0.0;
    for (size_t ft : from) {
      double best = 0.0;
      bool best_exact = false;
      for (size_t tt : to) {
        const size_t slot = forward ? ft * nt + tt : tt * nt + ft;
        const double s = token_sim_[slot];
        if (s > best) {
          best = s;
          best_exact = token_exact_[slot] != 0;
        }
      }
      if (!best_exact || best < 1.0) all_exact = false;
      sum += best;
    }
    return from.empty() ? 0.0 : sum / static_cast<double>(from.size());
  };
  double score = (directional(a.token_ids, b.token_ids, true) +
                  directional(b.token_ids, a.token_ids, false)) /
                 2.0;

  if (score >= options.exact_threshold && all_exact) {
    return {LabelMatchClass::kExact, 1.0};
  }
  if (score >= options.relaxed_threshold) {
    return {LabelMatchClass::kRelaxed, score};
  }
  return {LabelMatchClass::kNone, score};
}

}  // namespace qmatch::lingua
