#ifndef QMATCH_MATCH_SOA_KERNEL_H_
#define QMATCH_MATCH_SOA_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// One distinct-pair axis matrix: the axis score and its qom::AxisMatch
/// class (stored as the enum's byte) per (source key, target key),
/// row-major with `cols` columns.
struct AxisMatrix {
  size_t cols = 0;
  std::unique_ptr<double[]> score;
  std::unique_ptr<uint8_t[]> cls;
};

/// The filled table, kept by QMatch::Analysis: the per-pair `qom` and
/// `category` columns (source-major, 8 + 1 bytes per pair) plus the
/// distinct-pair label, property and level matrices a pair's per-axis
/// breakdown is rebuilt from (SoaCell). Nothing is zero-filled: a row's
/// cells hold values only once the fill marked the row done.
struct SoaTable {
  size_t cols = 0;  // target nodes
  std::unique_ptr<double[]> qom;
  std::unique_ptr<uint8_t[]> category;  // qom::MatchCategory bytes
  AxisMatrix label;       // distinct source label x distinct target label
  AxisMatrix properties;  // distinct property descriptors
  AxisMatrix level;       // (source level, target level)

  /// Bytes SoaFillTable allocates for the table of `source` x `target`:
  /// what the engine charges a request's memory budget before the fill.
  static uint64_t Bytes(const xsd::FlatSchema& source,
                        const xsd::FlatSchema& target);
};

struct SoaKernelResult {
  StopReason stop = StopReason::kNone;
  size_t completed_rows = 0;
  SoaTable table;
};

/// Fills the TreeMatch table of `source` x `target` (PAPER.md §4, Fig. 3)
/// and returns it as a SoaTable — cell for cell bit-identical to the
/// literal memoised recursion, which tests/qmatch_oracle.h keeps as the
/// differential oracle: every axis value is the same pure function
/// evaluated on the same inputs, and child QoMs are summed in tree order.
/// The kernel only *deduplicates*: label matches are computed once per
/// distinct (source label, target label) that can score (the rest are the
/// label scorer's background), property matches once per distinct
/// packed-descriptor pair, and level matches once per distinct
/// (source level, target level), then broadcast through the interned id
/// columns.
///
/// `table` is an optional output: when non-null (source-major, size
/// source.size()*target.size()) the fill also writes every completed
/// pair's full PairQoM decomposition there.
///
/// Everything is allocated on the calling thread before any fan-out to
/// `pool`; `Arena*` is unused (nullable), kept so callers that pass one
/// still build. `control` (nullable) is polled once after the label
/// matrix (a trip there returns with no row filled) and per pair during
/// each row's combine pass; on a trip the fill stops cooperatively and `row_done`
/// marks exactly the source rows whose every cell is complete (the
/// monotone-partial contract of DESIGN.md §10). The `treematch.pair`
/// failpoint fires once per computed pair, the chaos suite's hook for
/// slow-pair and deadline scenarios.
SoaKernelResult SoaFillTable(const xsd::FlatSchema& source,
                             const xsd::FlatSchema& target,
                             const SoaKernelConfig& config,
                             qom::PairQoM* table, std::vector<char>& row_done,
                             ThreadPool* pool, const ExecControl* control,
                             Arena* arena);

/// Rebuilds pair (i, j)'s full decomposition from a filled `table`: the
/// label, property and level axes from its distinct-pair matrices, the
/// children axis from the child cells by the function the row fill uses,
/// the total and category from the columns. Row i must be complete, and
/// `config` the configuration the table was filled with.
qom::PairQoM SoaCell(const xsd::FlatSchema& source,
                     const xsd::FlatSchema& target,
                     const SoaKernelConfig& config, const SoaTable& table,
                     size_t i, size_t j);

}  // namespace qmatch::match

#endif  // QMATCH_MATCH_SOA_KERNEL_H_
