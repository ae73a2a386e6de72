// Differential oracle for the production table fill (DESIGN.md §13).
//
// TreeMatch transcribed literally from PAPER.md §4, Fig. 3: a sequential,
// memoised recursion over the node pairs of AllNodes() preorder, calling
// only the axis primitives (NameMatcher label matching, MatchProperties,
// qom::Categorize). It shares no code with match/soa_kernel — no flattened
// projection, no property/level deduplication, no token cache, no
// level-sharded schedule — yet sums child QoMs in tree order with the same
// floating-point expressions, so its table is bit-identical to the
// kernel's by construction. match_kernel_diff_test diffs production
// against it.

#ifndef QMATCH_TESTS_QMATCH_ORACLE_H_
#define QMATCH_TESTS_QMATCH_ORACLE_H_

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/qmatch.h"
#include "lingua/name_match.h"
#include "match/property_matcher.h"
#include "qom/pair_qom.h"
#include "qom/taxonomy.h"
#include "xsd/schema.h"

namespace qmatch::oracle {

template <typename Cls>
qom::AxisMatch ToAxis(Cls cls) {
  if (cls == Cls::kExact) return qom::AxisMatch::kExact;
  if (cls == Cls::kRelaxed) return qom::AxisMatch::kRelaxed;
  return qom::AxisMatch::kNone;
}

class TreeMatchOracle {
 public:
  /// Evaluates the two axes that depend on neither the weights nor the
  /// mode up front, so one oracle serves every Table() call on the pair:
  /// NameMatcher::Match once per distinct (source label, target label)
  /// pair, each distinct label prepared once, and MatchProperties once per
  /// node pair. Every cell is a pure function of its inputs, so both are
  /// spread over a few threads; the recursion itself stays sequential.
  TreeMatchOracle(const xsd::Schema& source, const xsd::Schema& target,
                  const lingua::NameMatcher& names,
                  const match::PropertyMatchOptions& property_options)
      : src_(source.AllNodes()), tgt_(target.AllNodes()) {
    Index(src_, src_children_, src_label_, src_labels_);
    Index(tgt_, tgt_children_, tgt_label_, tgt_labels_);
    const size_t ml = tgt_labels_.size();
    labels_.resize(src_labels_.size() * ml);
    ForEachRow(src_labels_.size(), [&](size_t a) {
      for (size_t b = 0; b < ml; ++b) {
        labels_[a * ml + b] = names.Match(src_labels_[a], tgt_labels_[b]);
      }
    });
    const size_t m = tgt_.size();
    properties_.resize(src_.size() * m);
    ForEachRow(src_.size(), [&](size_t i) {
      for (size_t j = 0; j < m; ++j) {
        const match::PropertyMatch pm =
            match::MatchProperties(*src_[i], *tgt_[j], property_options);
        properties_[i * m + j] = {pm.score, ToAxis(pm.cls)};
      }
    });
  }

  /// The source-major n×m table over AllNodes() preorder under `tree`'s
  /// mode and depth cap. Reads the fill knobs of `config` (weights,
  /// threshold, child accumulation, level mode, leaf credit); the axis
  /// options are the ones the oracle was built with.
  std::vector<qom::PairQoM> Table(const core::QMatchConfig& config,
                                  const core::TreeMatchOptions& tree) const {
    Run run{*this, config, tree, config.weights,
            std::vector<qom::PairQoM>(src_.size() * tgt_.size()),
            std::vector<char>(src_.size() * tgt_.size(), 0)};
    if (tree.mode == MatchMode::kLabelOnly) {  // Eq. 6/7
      qom::Weights& w = run.weights;
      const double rest = w.label + w.properties + w.level;
      if (rest > 0.0) {
        w.label /= rest;
        w.properties /= rest;
        w.level /= rest;
      } else {
        w.label = w.properties = w.level = 1.0 / 3.0;
      }
      w.children = 0.0;
    }
    for (size_t i = 0; i < src_.size(); ++i) {
      for (size_t j = 0; j < tgt_.size(); ++j) run.TreeMatch(i, j);
    }
    return std::move(run.table);
  }

 private:
  struct Axis {
    double score = 0.0;
    qom::AxisMatch cls = qom::AxisMatch::kNone;
  };

  template <typename Fn>
  static void ForEachRow(size_t rows, const Fn& fn) {
    // Optimised builds spread the rows over a few threads. Debug builds
    // (the coverage configuration) stay on one: instrumented code shares
    // its counters across threads, which makes a fan-out slower than one
    // thread.
#ifdef NDEBUG
    constexpr size_t kThreads = 4;
#else
    constexpr size_t kThreads = 1;
#endif
    std::vector<std::thread> workers;
    for (size_t w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        for (size_t row = w; row < rows; row += kThreads) fn(row);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  // Preorder indices of every node's children, and of every node's label
  // among its side's distinct labels.
  static void Index(const std::vector<const xsd::SchemaNode*>& nodes,
                    std::vector<std::vector<size_t>>& children,
                    std::vector<size_t>& label_of,
                    std::vector<lingua::PreparedLabel>& labels) {
    std::unordered_map<const xsd::SchemaNode*, size_t> index;
    std::unordered_map<std::string, size_t> label_index;
    for (size_t i = 0; i < nodes.size(); ++i) index[nodes[i]] = i;
    for (const xsd::SchemaNode* node : nodes) {
      children.emplace_back();
      for (const auto& child : node->children()) {
        children.back().push_back(index.at(child.get()));
      }
      auto [it, fresh] = label_index.try_emplace(node->label(), labels.size());
      if (fresh) labels.push_back(lingua::NameMatcher::Prepare(node->label()));
      label_of.push_back(it->second);
    }
  }

  // One Table() evaluation: Fig. 3's TreeMatch(s, t), memoised in `table`.
  struct Run {
    const TreeMatchOracle& oracle;
    const core::QMatchConfig& config;
    const core::TreeMatchOptions& tree;
    qom::Weights weights;
    std::vector<qom::PairQoM> table;
    std::vector<char> done;

    bool Leaf(const xsd::SchemaNode* node) const {
      return node->IsLeaf() || (tree.mode == MatchMode::kCappedDepth &&
                                node->level() >= tree.children_depth_cap);
    }

    const qom::PairQoM& TreeMatch(size_t i, size_t j) {
      const size_t m = oracle.tgt_.size();
      qom::PairQoM& pair = table[i * m + j];
      if (done[i * m + j] != 0) return pair;
      const xsd::SchemaNode* s = oracle.src_[i];
      const xsd::SchemaNode* t = oracle.tgt_[j];

      // Children axis (Eq. 3-5), recursing into the child pairs first.
      if (tree.mode == MatchMode::kLabelOnly) {
        pair.children = 0.0;
        pair.coverage = qom::Coverage::kNone;
        pair.children_all_exact = false;
      } else if (Leaf(s) || Leaf(t)) {
        const bool both = Leaf(s) && Leaf(t);
        pair.children = both      ? 1.0
                        : Leaf(s) ? config.leaf_to_inner_children_credit
                                  : 0.0;
        pair.coverage = Leaf(s) ? qom::Coverage::kTotal : qom::Coverage::kNone;
        pair.children_all_exact = both;
      } else {
        const bool best_match =
            config.child_accumulation ==
            core::QMatchConfig::ChildAccumulation::kBestMatch;
        double qom_sum = 0.0;
        double matched = 0.0;
        bool all_exact = true;
        auto contribute = [&](const qom::PairQoM& child) {
          qom_sum += child.qom;
          matched += 1.0;
          if (child.category != qom::MatchCategory::kTotalExact) {
            all_exact = false;
          }
        };
        for (size_t ci : oracle.src_children_[i]) {
          const qom::PairQoM* best = nullptr;
          for (size_t cj : oracle.tgt_children_[j]) {
            const qom::PairQoM& child = TreeMatch(ci, cj);
            if (!best_match) {
              if (child.qom >= config.threshold) contribute(child);
            } else if (child.qom > (best != nullptr ? best->qom : 0.0)) {
              best = &child;
            }
          }
          if (best != nullptr && best->qom >= config.threshold) {
            contribute(*best);
          }
        }
        const double child_total = static_cast<double>(s->child_count());
        const double rw = qom_sum / child_total;         // Eq. 3
        const double rs = matched / child_total;         // Eq. 4
        pair.children = std::min(1.0, (rw + rs) / 2.0);  // Eq. 5
        pair.coverage = matched <= 0.0            ? qom::Coverage::kNone
                        : matched >= child_total ? qom::Coverage::kTotal
                                                 : qom::Coverage::kPartial;
        pair.children_all_exact =
            all_exact && pair.coverage == qom::Coverage::kTotal;
      }

      const lingua::LabelMatch lm =
          oracle.labels_[oracle.src_label_[i] * oracle.tgt_labels_.size() +
                         oracle.tgt_label_[j]];
      pair.label = lm.cls == lingua::LabelMatchClass::kNone ? 0.0 : lm.score;
      pair.label_cls = ToAxis(lm.cls);

      const Axis& pm = oracle.properties_[i * m + j];
      pair.properties = pm.score;
      pair.properties_cls = pm.cls;

      const bool graded =
          config.level_mode == core::QMatchConfig::LevelMode::kGraded;
      const double gap = static_cast<double>(
          s->level() > t->level() ? s->level() - t->level()
                                  : t->level() - s->level());
      pair.level = gap == 0.0 ? 1.0 : graded ? 1.0 / (1.0 + gap) : 0.0;
      pair.level_cls =
          gap == 0.0 ? qom::AxisMatch::kExact : qom::AxisMatch::kNone;

      const qom::Weights& w = weights;  // Eq. 1 (Eq. 6 when label-only)
      pair.qom = w.label * pair.label + w.properties * pair.properties +
                 w.level * pair.level + w.children * pair.children;
      pair.category =
          qom::Categorize(pair.label_cls, pair.properties_cls, pair.level_cls,
                          pair.coverage, pair.children_all_exact);
      done[i * m + j] = 1;
      return pair;
    }
  };

  std::vector<const xsd::SchemaNode*> src_;
  std::vector<const xsd::SchemaNode*> tgt_;
  std::vector<std::vector<size_t>> src_children_;
  std::vector<std::vector<size_t>> tgt_children_;
  std::vector<size_t> src_label_;
  std::vector<size_t> tgt_label_;
  std::vector<lingua::PreparedLabel> src_labels_;
  std::vector<lingua::PreparedLabel> tgt_labels_;
  std::vector<lingua::LabelMatch> labels_;  // distinct source × target
  std::vector<Axis> properties_;            // source-major n×m
};

}  // namespace qmatch::oracle

#endif  // QMATCH_TESTS_QMATCH_ORACLE_H_
