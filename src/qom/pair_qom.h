#ifndef QMATCH_QOM_PAIR_QOM_H_
#define QMATCH_QOM_PAIR_QOM_H_

#include <string>

#include "qom/taxonomy.h"

namespace qmatch::qom {

/// Per-node-pair QoM decomposition: the quantitative score along each axis,
/// the qualitative classification of each axis, and the resulting taxonomy
/// category and weighted total (paper Sections 2-3).
///
/// Lives in the qom layer (not core) because it is the cell type of the
/// pairwise table the structure-of-arrays kernel in match/soa_kernel fills.
/// `core::PairQoM` aliases this type, so existing callers are unaffected.
struct PairQoM {
  double label = 0.0;
  double properties = 0.0;
  double level = 0.0;
  double children = 0.0;
  AxisMatch label_cls = AxisMatch::kNone;
  AxisMatch properties_cls = AxisMatch::kNone;
  AxisMatch level_cls = AxisMatch::kNone;
  Coverage coverage = Coverage::kNone;
  bool children_all_exact = false;
  MatchCategory category = MatchCategory::kNoMatch;
  /// Weighted total QoM (Eq. 1 / Eq. 6).
  double qom = 0.0;

  std::string ToString() const;
};

}  // namespace qmatch::qom

#endif  // QMATCH_QOM_PAIR_QOM_H_
