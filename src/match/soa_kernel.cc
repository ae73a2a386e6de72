#include "match/soa_kernel.h"

#include <algorithm>
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

}  // namespace

SoaKernelResult SoaFillTable(const xsd::FlatSchema& source,
                             const xsd::FlatSchema& target,
                             const SoaKernelConfig& config,
                             qom::PairQoM* table, std::vector<char>& row_done,
                             ThreadPool* pool, const ExecControl* control,
                             Arena* arena) {
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
  // Everything below runs on the coordinating thread: the arena is not
  // thread-safe, so all scratch is carved out before rows fan out.

  // Label-axis matrix over *distinct* labels. The stored score is already
  // gated (0.0 when the class is kNone).
  const size_t nl = source.labels.size();
  const size_t ml = target.labels.size();
  double* label_score = arena->MakeArray<double>(nl * ml);
  uint8_t* label_cls = arena->MakeArray<uint8_t>(nl * ml);
  lingua::PairwiseLabelScorer scorer(*config.name_matcher, source.labels,
                                     target.labels);
  // The label matrix is the precompute stage's token work, so it polls the
  // stop latch once per distinct source label.
  auto fill_label_row = [&](size_t a) {
    if (should_stop()) return;
    double* score_row = label_score + a * ml;
    uint8_t* cls_row = label_cls + a * ml;
    for (size_t b = 0; b < ml; ++b) {
      const lingua::LabelMatch lm = scorer.Match(a, b);
      score_row[b] = lm.cls == lingua::LabelMatchClass::kNone ? 0.0 : lm.score;
      cls_row[b] = ToAxisByte(lm.cls);
    }
  };
  if (pool != nullptr && pool->worker_count() > 0 && nl * ml >= 4096) {
    // Each cell is a pure function of its label pair, so a parallel fill
    // is bit-identical to the sequential one for any worker count.
    scorer.Precompute();
    pool->ParallelFor(nl, fill_label_row);
  } else {
    for (size_t a = 0; a < nl; ++a) fill_label_row(a);
  }
  if (stop.load(std::memory_order_relaxed) != 0) {
    out.stop = static_cast<StopReason>(stop.load(std::memory_order_relaxed));
    return out;  // no row ran: an empty partial
  }

  // Property-axis matrix over distinct packed descriptors, evaluated on
  // representative nodes (the descriptor captures every field the matcher
  // reads, so any representative gives the pair's exact value).
  const size_t np = source.prop_keys.size();
  const size_t mp = target.prop_keys.size();
  double* prop_score = arena->MakeArray<double>(np * mp);
  uint8_t* prop_cls = arena->MakeArray<uint8_t>(np * mp);
  for (size_t p = 0; p < np; ++p) {
    const xsd::SchemaNode& rep = *source.nodes[source.prop_rep[p]];
    for (size_t q = 0; q < mp; ++q) {
      const PropertyMatch pm = MatchProperties(
          rep, *target.nodes[target.prop_rep[q]], config.property_options);
      prop_score[p * mp + q] = pm.score;
      prop_cls[p * mp + q] = ToAxisByte(pm.cls);
    }
  }

  // Level-axis matrix over distinct (source level, target level) pairs:
  // exact on equal levels, else 0 (binary) or 1/(1+gap) (graded).
  const size_t nlev = static_cast<size_t>(source.max_level) + 1;
  const size_t mlev = static_cast<size_t>(target.max_level) + 1;
  double* level_score = arena->MakeArray<double>(nlev * mlev);
  uint8_t* level_cls = arena->MakeArray<uint8_t>(nlev * mlev);
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

  // Effective-leaf flags (IsLeaf, or at/below the capped-depth rung's cap).
  auto leaf_flags = [&](const xsd::FlatSchema& flat) {
    uint8_t* flags = arena->MakeArray<uint8_t>(flat.size());
    for (size_t i = 0; i < flat.size(); ++i) {
      const bool leaf = flat.child_begin[i] == flat.child_begin[i + 1];
      const bool capped =
          config.capped &&
          static_cast<size_t>(flat.level[i]) >= config.children_depth_cap;
      flags[i] = (leaf || capped) ? 1 : 0;
    }
    return flags;
  };
  const uint8_t* source_leaf = leaf_flags(source);
  const uint8_t* target_leaf = leaf_flags(target);

  // SoA copies of the two table fields the children axis reads back, so
  // the child loops stream 8+1 bytes per cell instead of striding through
  // sizeof(PairQoM) AoS cells.
  double* qom_col = arena->MakeArray<double>(n * m);
  uint8_t* cat_col = arena->MakeArray<uint8_t>(n * m);

  // ---- row fill ----------------------------------------------------------
  // One source row, as columnar passes: children, label, properties,
  // level, then a combine pass that commits qom/category, polls the stop
  // latch and hits the `treematch.pair` failpoint once per pair. Returns
  // false when the fill stopped before the row completed.
  const qom::Weights w = config.weights;
  auto fill_row = [&](size_t i) -> bool {
    qom::PairQoM* row = table + i * m;
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

    // --- Children axis (Eq. 3-5) ---------------------------------------
    if (config.label_only) {
      for (size_t j = 0; j < m; ++j) {
        row[j].children = 0.0;
        row[j].coverage = qom::Coverage::kNone;
        row[j].children_all_exact = false;
      }
    } else if (source_leaf[i] != 0) {
      for (size_t j = 0; j < m; ++j) {
        if (target_leaf[j] != 0) {
          row[j].children = 1.0;
          row[j].coverage = qom::Coverage::kTotal;
          row[j].children_all_exact = true;
        } else {
          row[j].children = config.leaf_to_inner_children_credit;
          row[j].coverage = qom::Coverage::kTotal;
          row[j].children_all_exact = false;
        }
      }
    } else {
      const size_t cb = source.child_begin[i];
      const size_t ce = source.child_begin[i + 1];
      const double child_total = static_cast<double>(ce - cb);
      for (size_t j = 0; j < m; ++j) {
        if (target_leaf[j] != 0) {
          row[j].children = 0.0;
          row[j].coverage = qom::Coverage::kNone;
          row[j].children_all_exact = false;
          continue;
        }
        const size_t tb = target.child_begin[j];
        const size_t te = target.child_begin[j + 1];
        double qom_sum = 0.0;
        double matched = 0.0;
        bool all_exact = true;
        QMATCH_OBS_ONLY(memo_lookups += uint64_t{ce - cb} * (te - tb);)
        if (config.best_match_accumulation) {
          for (size_t sc = cb; sc < ce; ++sc) {
            const double* child_row =
                qom_col + static_cast<size_t>(source.child_index[sc]) * m;
            const uint8_t* child_cats =
                cat_col + static_cast<size_t>(source.child_index[sc]) * m;
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
            const double* child_row =
                qom_col + static_cast<size_t>(source.child_index[sc]) * m;
            const uint8_t* child_cats =
                cat_col + static_cast<size_t>(source.child_index[sc]) * m;
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
        QMATCH_OBS_ONLY(contributing += static_cast<uint64_t>(matched);)
        const double rw = qom_sum / child_total;  // Eq. 3
        const double rs = matched / child_total;  // Eq. 4
        row[j].children = std::min(1.0, (rw + rs) / 2.0);  // Eq. 5
        if (matched <= 0.0) {
          row[j].coverage = qom::Coverage::kNone;
          all_exact = false;
        } else if (matched >= child_total) {
          row[j].coverage = qom::Coverage::kTotal;
        } else {
          row[j].coverage = qom::Coverage::kPartial;
          all_exact = false;
        }
        row[j].children_all_exact = all_exact;
      }
    }
#if QMATCH_OBS_ENABLED
    const uint64_t children_ns = lap();
#endif

    // --- Label axis (broadcast from the distinct-label matrix) ----------
    {
      const double* score_row =
          label_score + static_cast<size_t>(source.label_id[i]) * ml;
      const uint8_t* cls_row =
          label_cls + static_cast<size_t>(source.label_id[i]) * ml;
      for (size_t j = 0; j < m; ++j) {
        const size_t b = target.label_id[j];
        row[j].label = score_row[b];
        row[j].label_cls = static_cast<qom::AxisMatch>(cls_row[b]);
      }
    }
#if QMATCH_OBS_ENABLED
    const uint64_t label_ns = lap();
#endif

    // --- Properties axis (broadcast from the descriptor matrix) ---------
    {
      const double* score_row =
          prop_score + static_cast<size_t>(source.prop_id[i]) * mp;
      const uint8_t* cls_row =
          prop_cls + static_cast<size_t>(source.prop_id[i]) * mp;
      for (size_t j = 0; j < m; ++j) {
        const size_t q = target.prop_id[j];
        row[j].properties = score_row[q];
        row[j].properties_cls = static_cast<qom::AxisMatch>(cls_row[q]);
      }
    }
#if QMATCH_OBS_ENABLED
    const uint64_t properties_ns = lap();
#endif

    // --- Level axis ------------------------------------------------------
    {
      const double* score_row =
          level_score + static_cast<size_t>(source.level[i]) * mlev;
      const uint8_t* cls_row =
          level_cls + static_cast<size_t>(source.level[i]) * mlev;
      for (size_t j = 0; j < m; ++j) {
        const size_t b = target.level[j];
        row[j].level = score_row[b];
        row[j].level_cls = static_cast<qom::AxisMatch>(cls_row[b]);
      }
    }
#if QMATCH_OBS_ENABLED
    const uint64_t level_ns = lap();
#endif

    // --- Combine pass: weighted total (Eq. 1/6), taxonomy category, stop
    // poll and per-pair failpoint ----------------------------------------
    double* qom_row = qom_col + i * m;
    uint8_t* cat_row = cat_col + i * m;
    bool completed = true;
    for (size_t j = 0; j < m; ++j) {
      if (should_stop()) {
        completed = false;
        break;
      }
      qom::PairQoM& pair = row[j];
      pair.qom = w.label * pair.label + w.properties * pair.properties +
                 w.level * pair.level + w.children * pair.children;
      pair.category =
          qom::Categorize(pair.label_cls, pair.properties_cls, pair.level_cls,
                          pair.coverage, pair.children_all_exact);
      qom_row[j] = pair.qom;
      cat_row[j] = static_cast<uint8_t>(pair.category);
      QMATCH_FAILPOINT("treematch.pair");
    }

#if QMATCH_OBS_ENABLED
    // Per-row flush: the pass structure makes exact per-axis timing cheap —
    // a handful of clock reads per row. The combine pass is not timed.
    QMATCH_COUNTER_ADD("qmatch.treematch.axis_children_ns", children_ns);
    QMATCH_COUNTER_ADD("qmatch.treematch.axis_label_ns", label_ns);
    QMATCH_COUNTER_ADD("qmatch.treematch.axis_properties_ns", properties_ns);
    QMATCH_COUNTER_ADD("qmatch.treematch.axis_level_ns", level_ns);
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

}  // namespace qmatch::match
