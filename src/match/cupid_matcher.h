#ifndef QMATCH_MATCH_CUPID_MATCHER_H_
#define QMATCH_MATCH_CUPID_MATCHER_H_

#include "lingua/thesaurus.h"
#include "match/linguistic_matcher.h"
#include "match/matcher.h"

namespace qmatch::match {

/// CUPID (Madhavan, Bernstein, Rahm — VLDB'01), the hybrid matcher the
/// paper names as its primary comparison target ("our current ongoing work
/// is focused on evaluating ... QMatch with other hybrid and composite
/// algorithms such as CUPID and COMA").
///
/// Two phases over the schema trees:
///  1. *linguistic*: name similarity `lsim` for every node pair (the same
///     thesaurus-backed CUPID-style name matcher QMatch uses);
///  2. *structural*: bottom-up weighted similarity
///        wsim = wstruct · ssim + (1 − wstruct) · lsim
///     where leaf `ssim` is datatype compatibility and inner `ssim` is the
///     fraction of leaves in the two subtrees that are *strongly linked*
///     (leaf pairs whose wsim ≥ th_accept), followed by CUPID's mutual
///     reinforcement: leaves under inner pairs with wsim ≥ th_high have
///     their wsim incremented by c_inc (one adjustment pass, then a
///     recompute — the original iterates to fixpoint).
///
/// Mappings are the best target per source with wsim ≥ th_accept.
class CupidMatcher : public Matcher {
 public:
  struct Options {
    /// Weight of the structural component in wsim.
    double wstruct = 0.5;
    /// Strong-link / mapping-acceptance threshold.
    double th_accept = 0.6;
    /// Inner-pair wsim above which descendant leaves are reinforced.
    double th_high = 0.75;
    /// Reinforcement increment.
    double c_inc = 0.1;
    /// Suppress near-tie mappings (see the other matchers).
    double ambiguity_margin = 0.02;
  };

  CupidMatcher() : CupidMatcher(nullptr, Options()) {}
  explicit CupidMatcher(const lingua::Thesaurus* thesaurus)
      : CupidMatcher(thesaurus, Options()) {}
  /// `thesaurus` is borrowed (may be null) and must outlive the matcher.
  CupidMatcher(const lingua::Thesaurus* thesaurus, Options options)
      : linguistic_(thesaurus), options_(options) {}

  std::string_view name() const override { return "cupid"; }

  MatchResult Match(const xsd::Schema& source,
                    const xsd::Schema& target) const override;

  /// The wsim matrix (after the reinforcement pass).
  SimilarityMatrix Similarity(const xsd::Schema& source,
                              const xsd::Schema& target) const override;

 private:
  /// Phase 1's matcher, kept so its token memo serves every call.
  LinguisticMatcher linguistic_;
  Options options_;
};

}  // namespace qmatch::match

#endif  // QMATCH_MATCH_CUPID_MATCHER_H_
