#include "match/soa_kernel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>

#include "fault/failpoint.h"
#include "obs/obs.h"
#include "qom/taxonomy.h"

namespace qmatch::match {

namespace {

// Axis class → qom::AxisMatch, stored as the enum value in the uint8
// matrices.
uint8_t ToAxisByte(lingua::LabelMatchClass cls) {
  switch (cls) {
    case lingua::LabelMatchClass::kExact:
      return static_cast<uint8_t>(qom::AxisMatch::kExact);
    case lingua::LabelMatchClass::kRelaxed:
      return static_cast<uint8_t>(qom::AxisMatch::kRelaxed);
    case lingua::LabelMatchClass::kNone:
      return static_cast<uint8_t>(qom::AxisMatch::kNone);
  }
  return static_cast<uint8_t>(qom::AxisMatch::kNone);
}

uint8_t ToAxisByte(PropertyMatchClass cls) {
  switch (cls) {
    case PropertyMatchClass::kExact:
      return static_cast<uint8_t>(qom::AxisMatch::kExact);
    case PropertyMatchClass::kRelaxed:
      return static_cast<uint8_t>(qom::AxisMatch::kRelaxed);
    case PropertyMatchClass::kNone:
      return static_cast<uint8_t>(qom::AxisMatch::kNone);
  }
  return static_cast<uint8_t>(qom::AxisMatch::kNone);
}

constexpr uint8_t kTotalExactByte =
    static_cast<uint8_t>(qom::MatchCategory::kTotalExact);

AxisMatrix MakeAxisMatrix(size_t rows, size_t cols) {
  AxisMatrix matrix;
  matrix.cols = cols;
  matrix.score = std::make_unique_for_overwrite<double[]>(rows * cols);
  matrix.cls = std::make_unique_for_overwrite<uint8_t[]>(rows * cols);
  return matrix;
}

/// Leaf on the children axis: no children, or at/below the capped-depth
/// rung's cap.
bool EffectiveLeaf(const xsd::FlatSchema& flat, const SoaKernelConfig& config,
                   size_t i) {
  return flat.child_begin[i] == flat.child_begin[i + 1] ||
         (config.capped &&
          static_cast<size_t>(flat.level[i]) >= config.children_depth_cap);
}

/// The children axis (Eq. 3-5) of one pair, plus the memoisation traffic
/// the obs counters report.
struct ChildrenAxis {
  double value = 0.0;
  qom::Coverage coverage = qom::Coverage::kNone;
  bool all_exact = false;
  double matched = 0.0;  // contributing child pairs
  uint64_t lookups = 0;  // child cells read
};

/// The children axis of pair (i, j), read from the completed child rows of
/// the `qom`/`category` columns. The row fill and SoaCell both call this,
/// so a rebuilt cell's children axis is the filled one by construction.
/// Inlined into the row fill's per-pair loop, where the row-invariant
/// branches hoist out.
[[gnu::always_inline]] inline ChildrenAxis ChildrenOf(
    const xsd::FlatSchema& source, const xsd::FlatSchema& target,
    const SoaKernelConfig& config, bool source_leaf, bool target_leaf,
    const double* qom, const uint8_t* category, size_t i, size_t j) {
  ChildrenAxis out;
  if (config.label_only) return out;
  if (source_leaf) {
    // Vacuously total coverage (no source children to leave uncovered),
    // exact only against a leaf.
    out.value = target_leaf ? 1.0 : config.leaf_to_inner_children_credit;
    out.coverage = qom::Coverage::kTotal;
    out.all_exact = target_leaf;
    return out;
  }
  if (target_leaf) return out;
  const size_t m = target.size();
  const size_t cb = source.child_begin[i];
  const size_t ce = source.child_begin[i + 1];
  const size_t tb = target.child_begin[j];
  const size_t te = target.child_begin[j + 1];
  const double child_total = static_cast<double>(ce - cb);
  double qom_sum = 0.0;
  double matched = 0.0;
  bool all_exact = true;
  out.lookups = uint64_t{ce - cb} * (te - tb);
  if (config.best_match_accumulation) {
    for (size_t sc = cb; sc < ce; ++sc) {
      const size_t child = source.child_index[sc];
      const double* child_row = qom + child * m;
      const uint8_t* child_cats = category + child * m;
      double best = 0.0;
      uint8_t best_cat = 0;
      bool has_best = false;
      for (size_t tc = tb; tc < te; ++tc) {
        const size_t cj = target.child_index[tc];
        if (child_row[cj] > best) {
          best = child_row[cj];
          best_cat = child_cats[cj];
          has_best = true;
        }
      }
      if (has_best && best >= config.threshold) {
        qom_sum += best;
        matched += 1.0;
        if (best_cat != kTotalExactByte) all_exact = false;
      }
    }
  } else {
    // Paper-literal accumulation (Fig. 3 pseudo-code).
    for (size_t sc = cb; sc < ce; ++sc) {
      const size_t child = source.child_index[sc];
      const double* child_row = qom + child * m;
      const uint8_t* child_cats = category + child * m;
      for (size_t tc = tb; tc < te; ++tc) {
        const size_t cj = target.child_index[tc];
        if (child_row[cj] >= config.threshold) {
          qom_sum += child_row[cj];
          matched += 1.0;
          if (child_cats[cj] != kTotalExactByte) all_exact = false;
        }
      }
    }
  }
  const double rw = qom_sum / child_total;     // Eq. 3
  const double rs = matched / child_total;     // Eq. 4
  out.value = std::min(1.0, (rw + rs) / 2.0);  // Eq. 5
  out.matched = matched;
  if (matched <= 0.0) {
    out.coverage = qom::Coverage::kNone;
    all_exact = false;
  } else if (matched >= child_total) {
    out.coverage = qom::Coverage::kTotal;
  } else {
    out.coverage = qom::Coverage::kPartial;
    all_exact = false;
  }
  out.all_exact = all_exact;
  return out;
}

// The children pass stages a pair's coverage and all-exact flag in its
// category byte (3 bits) until the combine pass overwrites it.
uint8_t PackChildren(qom::Coverage coverage, bool all_exact) {
  return static_cast<uint8_t>(static_cast<uint8_t>(coverage) << 1 |
                              (all_exact ? 1 : 0));
}

/// qom::Categorize tabulated over every input, indexed by
/// CategoryIndex(label class, property class, level class, staged children
/// byte), so the combine pass looks a category up instead of calling out
/// per pair. Filled by calling Categorize itself.
size_t CategoryIndex(size_t label, size_t properties, size_t level,
                     uint8_t children) {
  return ((label * 3 + properties) * 3 + level) * 8 + children;
}

std::array<uint8_t, 27 * 8> MakeCategoryTable() {
  std::array<uint8_t, 27 * 8> table{};
  for (size_t k = 0; k < table.size(); ++k) {
    const size_t axes = k / 8;
    const auto children = static_cast<uint8_t>(k % 8);
    if ((children >> 1) > 2) continue;  // not a Coverage value
    table[k] = static_cast<uint8_t>(qom::Categorize(
        static_cast<qom::AxisMatch>(axes / 9),
        static_cast<qom::AxisMatch>(axes / 3 % 3),
        static_cast<qom::AxisMatch>(axes % 3),
        static_cast<qom::Coverage>(children >> 1), (children & 1) != 0));
  }
  return table;
}

}  // namespace

uint64_t SoaTable::Bytes(const xsd::FlatSchema& source,
                         const xsd::FlatSchema& target) {
  constexpr uint64_t kCell = sizeof(double) + sizeof(uint8_t);
  const uint64_t levels = (uint64_t{source.max_level} + 1) *
                          (uint64_t{target.max_level} + 1);
  return kCell * (uint64_t{source.size()} * target.size() +
                  uint64_t{source.labels.size()} * target.labels.size() +
                  uint64_t{source.prop_keys.size()} * target.prop_keys.size() +
                  levels);
}

SoaKernelResult SoaFillTable(const xsd::FlatSchema& source,
                             const xsd::FlatSchema& target,
                             const SoaKernelConfig& config,
                             qom::PairQoM* table, std::vector<char>& row_done,
                             ThreadPool* pool, const ExecControl* control,
                             Arena* /*unused*/) {
  SoaKernelResult out;
  const size_t n = source.size();
  const size_t m = target.size();
  if (n == 0 || m == 0) return out;

  // ---- cooperative stop ---------------------------------------------------
  // `stop` latches the first StopReason any worker observes; every worker
  // polls it (one relaxed load) per pair, so a tripped deadline or
  // cancellation drains the fill within one pair per worker. With no
  // active control this is one branch per pair.
  const bool controlled = control != nullptr && control->active();
  std::atomic<int> stop{0};  // 0 = running, else static_cast<int>(StopReason)
  auto should_stop = [&]() -> bool {
    if (!controlled) return false;
    if (stop.load(std::memory_order_relaxed) != 0) return true;
    const StopReason reason = control->Check();
    if (reason == StopReason::kNone) return false;
    int expected = 0;
    stop.compare_exchange_strong(expected, static_cast<int>(reason),
                                 std::memory_order_relaxed);
    return true;
  };

  // ---- precompute stage -------------------------------------------------
  // Everything below is allocated on the coordinating thread before rows
  // fan out.
  SoaTable& out_table = out.table;
  out_table.cols = m;

  // Label-axis matrix over *distinct* labels. The stored score is already
  // gated (0.0 when the class is kNone).
  const size_t nl = source.labels.size();
  const size_t ml = target.labels.size();
  out_table.label = MakeAxisMatrix(nl, ml);
  double* label_score = out_table.label.score.get();
  uint8_t* label_cls = out_table.label.cls.get();
  // Each token-pair slot and each scored candidate is a pure function of
  // its pair, so a parallel scorer is bit-identical to the sequential one
  // for any worker count. Every cell that is not a candidate is the
  // scorer's background.
  const bool parallel_labels =
      pool != nullptr && pool->worker_count() > 0 && nl * ml >= 4096;
  const lingua::PairwiseLabelScorer scorer(*config.name_matcher, source.labels,
                                           target.labels,
                                           parallel_labels ? pool : nullptr);
  QMATCH_COUNTER_ADD("lingua.label_pairs_scored", scorer.scored());
  std::fill_n(label_score, nl * ml, 0.0);  // the background scores +0.0
  std::fill_n(label_cls, nl * ml, ToAxisByte(scorer.background().cls));
  for (size_t a = 0; a < nl; ++a) {
    for (const lingua::PairwiseLabelScorer::Scored& scored : scorer.Row(a)) {
      const lingua::LabelMatch& lm = scored.match;
      label_score[a * ml + scored.target] =
          lm.cls == lingua::LabelMatchClass::kNone ? 0.0 : lm.score;
      label_cls[a * ml + scored.target] = ToAxisByte(lm.cls);
    }
  }
  // The label stage polls the stop latch once; a trip there returns with no
  // row filled.
  if (should_stop()) {
    out.stop = static_cast<StopReason>(stop.load(std::memory_order_relaxed));
    return out;  // no row ran: an empty partial
  }

  // Property-axis matrix over distinct packed descriptors: the axis is a
  // pure function of a descriptor pair, scored without allocating.
  const size_t np = source.prop_keys.size();
  const size_t mp = target.prop_keys.size();
  out_table.properties = MakeAxisMatrix(np, mp);
  double* prop_score = out_table.properties.score.get();
  uint8_t* prop_cls = out_table.properties.cls.get();
  auto fill_prop_row = [&](size_t p) {
    const xsd::FlatSchema::PropertyKey& key = source.prop_keys[p];
    for (size_t q = 0; q < mp; ++q) {
      const PropertyMatch pm = MatchPropertyKeys(key, target.prop_keys[q],
                                                 config.property_options);
      prop_score[p * mp + q] = pm.score;
      prop_cls[p * mp + q] = ToAxisByte(pm.cls);
    }
  };
  if (pool != nullptr && pool->worker_count() > 0 && np * mp >= 4096) {
    pool->ParallelFor(np, fill_prop_row);  // pure cells, as above
  } else {
    for (size_t p = 0; p < np; ++p) fill_prop_row(p);
  }

  // Level-axis matrix over distinct (source level, target level) pairs:
  // exact on equal levels, else 0 (binary) or 1/(1+gap) (graded).
  const size_t nlev = static_cast<size_t>(source.max_level) + 1;
  const size_t mlev = static_cast<size_t>(target.max_level) + 1;
  out_table.level = MakeAxisMatrix(nlev, mlev);
  double* level_score = out_table.level.score.get();
  uint8_t* level_cls = out_table.level.cls.get();
  for (size_t a = 0; a < nlev; ++a) {
    for (size_t b = 0; b < mlev; ++b) {
      double score = 0.0;
      uint8_t cls = static_cast<uint8_t>(qom::AxisMatch::kNone);
      if (a == b) {
        score = 1.0;
        cls = static_cast<uint8_t>(qom::AxisMatch::kExact);
      } else if (config.level_graded) {
        const double gap = static_cast<double>(a > b ? a - b : b - a);
        score = 1.0 / (1.0 + gap);
      }
      level_score[a * mlev + b] = score;
      level_cls[a * mlev + b] = cls;
    }
  }

  // Effective-leaf flags, so the row loops read one byte per node.
  auto leaf_flags = [&](const xsd::FlatSchema& flat) {
    std::vector<uint8_t> flags(flat.size());
    for (size_t i = 0; i < flat.size(); ++i) {
      flags[i] = EffectiveLeaf(flat, config, i) ? 1 : 0;
    }
    return flags;
  };
  const std::vector<uint8_t> source_leaf = leaf_flags(source);
  const std::vector<uint8_t> target_leaf = leaf_flags(target);

  // The output columns, written directly by the row fill (never
  // zero-filled: only completed rows are ever read).
  out_table.qom = std::make_unique_for_overwrite<double[]>(n * m);
  out_table.category = std::make_unique_for_overwrite<uint8_t[]>(n * m);
  double* qom_col = out_table.qom.get();
  uint8_t* cat_col = out_table.category.get();

  // ---- row fill ----------------------------------------------------------
  // One source row, as two passes over its m cells. The children pass
  // stages each pair's children value in the row's qom column and its
  // coverage/all-exact bits in the category column. The combine pass
  // broadcasts the label, property and level axes from the distinct-pair
  // matrices, commits the weighted total and taxonomy category, polls the
  // stop latch and hits the `treematch.pair` failpoint once per pair.
  // Returns false when the fill stopped before the row completed.
  const qom::Weights w = config.weights;
  static const std::array<uint8_t, 27 * 8> categories = MakeCategoryTable();
  auto fill_row = [&](size_t i) -> bool {
    double* qom_row = qom_col + i * m;
    uint8_t* cat_row = cat_col + i * m;
#if QMATCH_OBS_ENABLED
    uint64_t memo_lookups = 0;
    uint64_t contributing = 0;
    uint64_t mark = obs::MonotonicNowNs();
    auto lap = [&mark]() {
      const uint64_t now = obs::MonotonicNowNs();
      const uint64_t spent = now - mark;
      mark = now;
      return spent;
    };
#endif

    // --- Children pass (Eq. 3-5) ---------------------------------------
    const bool leaf_row = source_leaf[i] != 0;
    for (size_t j = 0; j < m; ++j) {
      const ChildrenAxis children =
          ChildrenOf(source, target, config, leaf_row, target_leaf[j] != 0,
                     qom_col, cat_col, i, j);
      qom_row[j] = children.value;
      cat_row[j] = PackChildren(children.coverage, children.all_exact);
      QMATCH_OBS_ONLY(memo_lookups += children.lookups;
                      contributing +=
                          static_cast<uint64_t>(children.matched);)
    }
#if QMATCH_OBS_ENABLED
    const uint64_t children_ns = lap();
#endif

    // --- Combine pass: label/property/level broadcast, weighted total
    // (Eq. 1/6), taxonomy category, stop poll and per-pair failpoint ------
    const double* lscore = label_score + size_t{source.label_id[i]} * ml;
    const uint8_t* lcls = label_cls + size_t{source.label_id[i]} * ml;
    const double* pscore = prop_score + size_t{source.prop_id[i]} * mp;
    const uint8_t* pcls = prop_cls + size_t{source.prop_id[i]} * mp;
    const double* hscore = level_score + size_t{source.level[i]} * mlev;
    const uint8_t* hcls = level_cls + size_t{source.level[i]} * mlev;
    bool completed = true;
    for (size_t j = 0; j < m; ++j) {
      if (should_stop()) {
        completed = false;
        break;
      }
      const uint32_t b = target.label_id[j];
      const uint32_t q = target.prop_id[j];
      const uint32_t h = target.level[j];
      const double children = qom_row[j];
      const uint8_t staged = cat_row[j];
      const double total = w.label * lscore[b] + w.properties * pscore[q] +
                           w.level * hscore[h] + w.children * children;
      qom_row[j] = total;
      cat_row[j] = categories[CategoryIndex(lcls[b], pcls[q], hcls[h], staged)];
      if (table != nullptr) {
        qom::PairQoM& pair = table[i * m + j];
        pair.label = lscore[b];
        pair.properties = pscore[q];
        pair.level = hscore[h];
        pair.children = children;
        pair.label_cls = static_cast<qom::AxisMatch>(lcls[b]);
        pair.properties_cls = static_cast<qom::AxisMatch>(pcls[q]);
        pair.level_cls = static_cast<qom::AxisMatch>(hcls[h]);
        pair.coverage = static_cast<qom::Coverage>(staged >> 1);
        pair.children_all_exact = (staged & 1) != 0;
        pair.category = static_cast<qom::MatchCategory>(cat_row[j]);
        pair.qom = total;
      }
      QMATCH_FAILPOINT("treematch.pair");
    }

#if QMATCH_OBS_ENABLED
    // Per-row flush: the pass structure makes exact per-pass timing cheap —
    // a handful of clock reads per row.
    QMATCH_COUNTER_ADD("qmatch.treematch.axis_children_ns", children_ns);
    QMATCH_COUNTER_ADD("qmatch.treematch.combine_ns", lap());
    QMATCH_COUNTER_ADD("qmatch.treematch.sampled_pairs", m);
    QMATCH_COUNTER_ADD("qmatch.treematch.memo_lookups", memo_lookups);
    QMATCH_COUNTER_ADD("qmatch.treematch.contributing_children", contributing);
    if (completed) {
      static obs::Histogram& depth_hist = obs::Registry::Global().GetHistogram(
          "qmatch.treematch.recursion_depth",
          obs::Histogram::ExponentialBounds(1.0, 2.0, 8),
          "TreeMatch recursion depth (source node level) per table row");
      depth_hist.Observe(static_cast<double>(source.level[i]));
    }
#endif
    return completed;
  };

  auto run_row = [&](size_t i) {
    if (fill_row(i)) row_done[i] = 1;
  };

  // ---- drivers -------------------------------------------------------------
  if (pool == nullptr || pool->worker_count() == 0) {
    // Reverse preorder = bottom-up: every child row is complete before any
    // row that reads it.
    for (size_t i = n; i-- > 0;) {
      if (stop.load(std::memory_order_relaxed) != 0) break;
      run_row(i);
    }
  } else {
    // Level-sharded: deepest level first with a barrier between levels;
    // rows within a level never read each other.
    std::vector<std::vector<size_t>> rows_by_level(
        static_cast<size_t>(source.max_level) + 1);
    for (size_t i = 0; i < n; ++i) {
      rows_by_level[source.level[i]].push_back(i);
    }
    for (size_t level = rows_by_level.size(); level-- > 0;) {
      if (stop.load(std::memory_order_relaxed) != 0) break;
      const std::vector<size_t>& rows = rows_by_level[level];
      pool->ParallelFor(rows.size(), [&](size_t r) {
        if (stop.load(std::memory_order_relaxed) != 0) return;
        run_row(rows[r]);
      });
    }
  }

  out.stop = static_cast<StopReason>(stop.load(std::memory_order_relaxed));
  for (size_t i = 0; i < n; ++i) {
    out.completed_rows += row_done[i] != 0 ? 1u : 0u;
  }
  return out;
}

qom::PairQoM SoaCell(const xsd::FlatSchema& source,
                     const xsd::FlatSchema& target,
                     const SoaKernelConfig& config, const SoaTable& table,
                     size_t i, size_t j) {
  const size_t m = table.cols;
  const ChildrenAxis children = ChildrenOf(
      source, target, config, EffectiveLeaf(source, config, i),
      EffectiveLeaf(target, config, j), table.qom.get(), table.category.get(),
      i, j);
  auto axis = [](const AxisMatrix& matrix, size_t a, size_t b,
                 double* score) {
    *score = matrix.score[a * matrix.cols + b];
    return static_cast<qom::AxisMatch>(matrix.cls[a * matrix.cols + b]);
  };
  qom::PairQoM pair;
  pair.label_cls = axis(table.label, source.label_id[i], target.label_id[j],
                        &pair.label);
  pair.properties_cls = axis(table.properties, source.prop_id[i],
                             target.prop_id[j], &pair.properties);
  pair.level_cls =
      axis(table.level, source.level[i], target.level[j], &pair.level);
  pair.children = children.value;
  pair.coverage = children.coverage;
  pair.children_all_exact = children.all_exact;
  pair.category = static_cast<qom::MatchCategory>(table.category[i * m + j]);
  pair.qom = table.qom[i * m + j];
  return pair;
}

}  // namespace qmatch::match
