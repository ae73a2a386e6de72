#ifndef QMATCH_MATCH_SOA_KERNEL_H_
#define QMATCH_MATCH_SOA_KERNEL_H_

#include <cstddef>
#include <vector>

#include "common/arena.h"
#include "common/cancel.h"
#include "common/thread_pool.h"
#include "lingua/name_match.h"
#include "match/property_matcher.h"
#include "qom/pair_qom.h"
#include "qom/weights.h"
#include "xsd/flatten.h"

namespace qmatch::match {

/// Everything the SoA fill needs from QMatchConfig, flattened so the match
/// layer does not depend on core. `weights` must already carry any
/// label-only renormalisation (Eq. 6/7); `label_only`/`capped` mirror the
/// MatchMode rungs.
struct SoaKernelConfig {
  qom::Weights weights;
  double threshold = 0.5;
  /// True = best-target-per-child accumulation; false = paper-literal
  /// (every child pair above threshold contributes).
  bool best_match_accumulation = true;
  /// True = graded level axis (1/(1+gap)); false = binary.
  bool level_graded = false;
  double leaf_to_inner_children_credit = 0.5;
  bool label_only = false;
  bool capped = false;
  size_t children_depth_cap = 0;
  /// Borrowed; must outlive the call.
  const lingua::NameMatcher* name_matcher = nullptr;
  PropertyMatchOptions property_options;
};

struct SoaKernelResult {
  StopReason stop = StopReason::kNone;
  size_t completed_rows = 0;
};

/// Fills `table` (source-major, size source.size()*target.size()) with the
/// per-pair QoM decomposition of TreeMatch (PAPER.md §4, Fig. 3) — cell for
/// cell bit-identical to the literal memoised recursion, which
/// tests/qmatch_oracle.h keeps as the differential oracle: every axis value
/// is the same pure function evaluated on the same inputs, and child QoMs
/// are summed in tree order. The kernel only *deduplicates*: label matches
/// are computed once per distinct (source label, target label), property
/// matches once per distinct packed-descriptor pair, and level matches once
/// per distinct (source level, target level), then broadcast through the
/// interned id columns.
///
/// All scratch (similarity matrices, SoA score columns) comes from
/// `arena`, allocated on the calling thread before any fan-out to `pool`.
/// `control` (nullable) is polled once per distinct source label while the
/// label matrix fills (a trip there returns with no row filled) and per
/// pair during the final combine pass; on a trip the fill stops
/// cooperatively and `row_done` marks exactly the source rows whose every
/// cell is complete (the monotone-partial contract of DESIGN.md §10). The
/// `treematch.pair` failpoint fires once per computed pair, the chaos
/// suite's hook for slow-pair and deadline scenarios.
SoaKernelResult SoaFillTable(const xsd::FlatSchema& source,
                             const xsd::FlatSchema& target,
                             const SoaKernelConfig& config,
                             qom::PairQoM* table, std::vector<char>& row_done,
                             ThreadPool* pool, const ExecControl* control,
                             Arena* arena);

}  // namespace qmatch::match

#endif  // QMATCH_MATCH_SOA_KERNEL_H_
