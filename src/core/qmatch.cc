#include "core/qmatch.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "match/soa_kernel.h"
#include "obs/obs.h"
#include "xsd/flatten.h"

namespace qmatch::core {

QMatch::QMatch() : QMatch(QMatchConfig{}, &lingua::DefaultThesaurus()) {}

QMatch::QMatch(QMatchConfig config)
    : QMatch(std::move(config), &lingua::DefaultThesaurus()) {}

QMatch::QMatch(QMatchConfig config, const lingua::Thesaurus* thesaurus)
    : config_(std::move(config)),
      name_matcher_(thesaurus, config_.name_options) {}

std::optional<PairQoM> QMatch::Analysis::Pair(
    const xsd::SchemaNode* source, const xsd::SchemaNode* target) const {
  auto is = source_index_.find(source);
  auto it = target_index_.find(target);
  if (is == source_index_.end() || it == target_index_.end()) return {};
  // Uncompleted rows hold no values: the columns are never zero-filled.
  if (row_done_[is->second] == 0) return {};
  return match::SoaCell(*source_flat_, *target_flat_, kernel_config_, table_,
                        is->second, it->second);
}

std::optional<PairQoM> QMatch::Analysis::PairByPath(
    std::string_view source_path, std::string_view target_path) const {
  const xsd::SchemaNode* s = source_schema_->FindByPath(source_path);
  const xsd::SchemaNode* t = target_schema_->FindByPath(target_path);
  if (s == nullptr || t == nullptr) return {};
  return Pair(s, t);
}

PairQoM QMatch::Analysis::Root() const {
  // An empty schema on either side leaves the table empty, and a stopped
  // run never completes the root row (it is filled last); either way the
  // root pair is the all-zero decomposition (schema QoM 0, no coverage).
  if (row_done_.empty() || row_done_[0] == 0) return PairQoM{};
  return match::SoaCell(*source_flat_, *target_flat_, kernel_config_, table_,
                        0, 0);  // preorder: both roots first
}

std::string QMatch::Analysis::ExplainCorrespondences() const {
  std::vector<const Correspondence*> sorted;
  sorted.reserve(result_.correspondences.size());
  for (const Correspondence& c : result_.correspondences) {
    sorted.push_back(&c);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Correspondence* a, const Correspondence* b) {
              return a->score > b->score;
            });
  std::string out = StrFormat("schema QoM %.4f — %zu correspondences\n",
                              result_.schema_qom, sorted.size());
  for (const Correspondence* c : sorted) {
    const std::optional<PairQoM> pair = Pair(c->source, c->target);
    out += StrFormat("%s -> %s\n  %s\n", c->source->Path().c_str(),
                     c->target->Path().c_str(),
                     pair ? pair->ToString().c_str() : "<?>");
  }
  return out;
}

std::map<qom::MatchCategory, size_t> QMatch::Analysis::CategoryHistogram()
    const {
  std::map<qom::MatchCategory, size_t> histogram;
  for (const Correspondence& c : result_.correspondences) {
    const std::optional<PairQoM> pair = Pair(c.source, c.target);
    if (pair) ++histogram[pair->category];
  }
  return histogram;
}

QMatch::Analysis QMatch::Analyze(const xsd::Schema& source,
                                 const xsd::Schema& target, ThreadPool* pool,
                                 const ExecControl* control,
                                 const TreeMatchOptions& tree) const {
  Analysis analysis;
  analysis.source_schema_ = &source;
  analysis.target_schema_ = &target;
  analysis.result_.algorithm = std::string(name());
  analysis.result_.mode = tree.mode;
  analysis.source_flat_ = source.SharedFlat();
  analysis.target_flat_ = target.SharedFlat();
  const xsd::FlatSchema& sflat = *analysis.source_flat_;
  const xsd::FlatSchema& tflat = *analysis.target_flat_;
  if (source.root() == nullptr || target.root() == nullptr) return analysis;

  // Degradation ladder (see MatchMode). kLabelOnly drops the children axis
  // and renormalizes the remaining weight mass per Eq. 6/7, so the weighted
  // total still spans [0, 1]; the label/property/level axis *values* are
  // computed by exactly the code the full run uses, and stay bit-identical.
  // kCappedDepth treats nodes at the cap or deeper as leaves on the
  // children axis only. kFull leaves every branch byte-for-byte unchanged.
  const bool label_only = tree.mode == MatchMode::kLabelOnly;
  qom::Weights weights = config_.weights;
  if (label_only) {
    const double rest = weights.label + weights.properties + weights.level;
    if (rest > 0.0) {
      weights.label /= rest;
      weights.properties /= rest;
      weights.level /= rest;
    } else {
      weights.label = weights.properties = weights.level = 1.0 / 3.0;
    }
    weights.children = 0.0;
  }

  const auto& src = sflat.nodes;
  const auto& tgt = tflat.nodes;
  const size_t n = src.size();
  const size_t m = tgt.size();
  QMATCH_SPAN(treematch_span, "qmatch.treematch");
  QMATCH_SPAN_ARG(treematch_span, "source_nodes", n);
  QMATCH_SPAN_ARG(treematch_span, "target_nodes", m);
  QMATCH_COUNTER_ADD("qmatch.treematch.tables", 1);
  QMATCH_COUNTER_ADD("qmatch.treematch.pairs", n * m);
  for (size_t i = 0; i < n; ++i) analysis.source_index_[src[i]] = i;
  for (size_t j = 0; j < m; ++j) analysis.target_index_[tgt[j]] = j;

  // The table fill (DESIGN.md §13): the SoA kernel batches Fig. 3's
  // memoised recursion over the schemas' flattened projections and hands
  // back the qom/category columns plus the distinct-pair axis matrices.
  match::SoaKernelConfig& kernel_config = analysis.kernel_config_;
  kernel_config.weights = weights;
  kernel_config.threshold = config_.threshold;
  kernel_config.best_match_accumulation =
      config_.child_accumulation == QMatchConfig::ChildAccumulation::kBestMatch;
  kernel_config.level_graded =
      config_.level_mode == QMatchConfig::LevelMode::kGraded;
  kernel_config.leaf_to_inner_children_credit =
      config_.leaf_to_inner_children_credit;
  kernel_config.label_only = label_only;
  kernel_config.capped = tree.mode == MatchMode::kCappedDepth;
  kernel_config.children_depth_cap = tree.children_depth_cap;
  kernel_config.name_matcher = &name_matcher_;
  kernel_config.property_options = config_.property_options;
  std::vector<char>& row_done = analysis.row_done_;
  row_done.assign(n, 0);
  {
    match::SoaKernelResult run =
        match::SoaFillTable(sflat, tflat, kernel_config, nullptr, row_done,
                            pool, control, nullptr);
    analysis.stop_reason_ = run.stop;
    analysis.completed_rows_ = run.completed_rows;
    analysis.table_ = std::move(run.table);
  }
  kernel_config.name_matcher = nullptr;  // the analysis may outlive us

  const double* qom = analysis.table_.qom.get();
  // The label-evidence gate reads the distinct-label class matrix.
  const match::AxisMatrix& labels = analysis.table_.label;
  auto has_label_evidence = [&](size_t i, size_t j) {
    return static_cast<qom::AxisMatch>(
               labels.cls[sflat.label_id[i] * labels.cols +
                          tflat.label_id[j]]) != qom::AxisMatch::kNone;
  };

  // Correspondences: extracted from the QoM table per the configured
  // assignment strategy (default: best target per source node, the set P
  // evaluated in Section 5). Pairs without label evidence are never
  // reported (see QMatchConfig).
  //
  // A stopped run yields the monotone partial result: completed rows are
  // bit-identical to the uninterrupted run (a row only reads strictly
  // deeper rows, which were complete before it started), and
  // kBestPerSource decides each source node from its own row alone — so
  // restricting the assignment to completed rows reproduces exactly the
  // correspondences the full run reports for those sources. The injective
  // strategies compete across rows and cannot be restricted soundly; they
  // report nothing.
  const bool complete = analysis.stop_reason_ == StopReason::kNone;
  std::vector<const xsd::SchemaNode*> done_sources;
  std::vector<size_t> done_rows;
  if (!complete) {
    QMATCH_COUNTER_ADD("qmatch.treematch.stopped_tables", 1);
    for (size_t i = 0; i < n; ++i) {
      if (row_done[i] == 0) continue;
      done_sources.push_back(src[i]);
      done_rows.push_back(i);
    }
  }
  auto row = [&](size_t i) { return complete ? i : done_rows[i]; };
  if (complete || (config_.assignment ==
                       match::AssignmentStrategy::kBestPerSource &&
                   !done_rows.empty())) {
    match::AssignmentInput input;
    input.sources = complete ? &src : &done_sources;
    input.targets = &tgt;
    input.score = [&](size_t i, size_t j) { return qom[row(i) * m + j]; };
    if (config_.require_label_evidence) {
      input.eligible = [&](size_t i, size_t j) {
        return has_label_evidence(row(i), j);
      };
    }
    input.threshold = config_.threshold;
    input.ambiguity_margin = config_.ambiguity_margin;
    analysis.result_.correspondences =
        match::SelectCorrespondences(input, config_.assignment);
  }
  // The schema-level QoM lives in the root pair, which is computed last;
  // report it only when that row actually finished.
  if (row_done[0] != 0) analysis.result_.schema_qom = qom[0];
  return analysis;
}

MatchResult QMatch::Match(const xsd::Schema& source,
                          const xsd::Schema& target) const {
  return Analyze(source, target).TakeResult();
}

match::SimilarityMatrix QMatch::Similarity(const xsd::Schema& source,
                                           const xsd::Schema& target) const {
  return Similarity(source, target, nullptr);
}

match::SimilarityMatrix QMatch::Similarity(const xsd::Schema& source,
                                           const xsd::Schema& target,
                                           ThreadPool* pool) const {
  Analysis analysis = Analyze(source, target, pool);
  match::SimilarityMatrix matrix(analysis.source_flat_->nodes,
                                 analysis.target_flat_->nodes);
  const size_t m = analysis.target_flat_->size();
  for (size_t i = 0; i < analysis.source_flat_->size(); ++i) {
    std::copy_n(analysis.table_.qom.get() + i * m, m, matrix.row(i));
  }
  return matrix;
}

}  // namespace qmatch::core
