#include "core/qmatch.h"

#include <algorithm>
#include <utility>

#include "common/arena.h"
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
    : config_(std::move(config)), thesaurus_(thesaurus) {}

const PairQoM* QMatch::Analysis::Pair(const xsd::SchemaNode* source,
                                      const xsd::SchemaNode* target) const {
  auto is = source_index_.find(source);
  auto it = target_index_.find(target);
  if (is == source_index_.end() || it == target_index_.end()) return nullptr;
  return &table_[is->second * target_nodes_.size() + it->second];
}

const PairQoM* QMatch::Analysis::PairByPath(std::string_view source_path,
                                            std::string_view target_path) const {
  const xsd::SchemaNode* s = source_schema_->FindByPath(source_path);
  const xsd::SchemaNode* t = target_schema_->FindByPath(target_path);
  if (s == nullptr || t == nullptr) return nullptr;
  return Pair(s, t);
}

const PairQoM& QMatch::Analysis::Root() const {
  // An empty schema on either side leaves the table empty; its root pair is
  // the all-zero decomposition (schema QoM 0, no coverage).
  static const PairQoM kEmpty{};
  return table_.empty() ? kEmpty : table_[0];  // preorder: both roots first
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
    const PairQoM* pair = Pair(c->source, c->target);
    out += StrFormat("%s -> %s\n  %s\n", c->source->Path().c_str(),
                     c->target->Path().c_str(),
                     pair != nullptr ? pair->ToString().c_str() : "<?>");
  }
  return out;
}

std::map<qom::MatchCategory, size_t> QMatch::Analysis::CategoryHistogram()
    const {
  std::map<qom::MatchCategory, size_t> histogram;
  for (const Correspondence& c : result_.correspondences) {
    const PairQoM* pair = Pair(c.source, c.target);
    if (pair != nullptr) ++histogram[pair->category];
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

  analysis.source_nodes_ = source.AllNodes();
  analysis.target_nodes_ = target.AllNodes();
  const auto& src = analysis.source_nodes_;
  const auto& tgt = analysis.target_nodes_;
  const size_t n = src.size();
  const size_t m = tgt.size();
  QMATCH_SPAN(treematch_span, "qmatch.treematch");
  QMATCH_SPAN_ARG(treematch_span, "source_nodes", n);
  QMATCH_SPAN_ARG(treematch_span, "target_nodes", m);
  QMATCH_COUNTER_ADD("qmatch.treematch.tables", 1);
  QMATCH_COUNTER_ADD("qmatch.treematch.pairs", n * m);
  for (size_t i = 0; i < n; ++i) analysis.source_index_[src[i]] = i;
  for (size_t j = 0; j < m; ++j) analysis.target_index_[tgt[j]] = j;
  analysis.table_.assign(n * m, PairQoM{});
  auto& table = analysis.table_;
  auto at = [&](size_t i, size_t j) -> PairQoM& { return table[i * m + j]; };

  // The table fill (DESIGN.md §13): the SoA kernel batches Fig. 3's
  // memoised recursion over the schemas' flattened projections.
  const lingua::NameMatcher name_matcher(thesaurus_, config_.name_options);
  std::vector<char> row_done(n, 0);
  match::SoaKernelConfig kernel_config;
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
  kernel_config.name_matcher = &name_matcher;
  kernel_config.property_options = config_.property_options;
  {
    // All scratch comes from a per-request arena charged against the
    // request's memory budget block-by-block (ArenaExhausted propagates to
    // the engine, which maps it to kResourceExhausted). It lives only for
    // the fill: its blocks and their charge are released before selection.
    Arena arena(Arena::kDefaultBlockBytes, tree.arena_budget);
    const match::SoaKernelResult run =
        match::SoaFillTable(source.Flat(), target.Flat(), kernel_config,
                            table.data(), row_done, pool, control, &arena);
    analysis.stop_reason_ = run.stop;
    analysis.completed_rows_ = run.completed_rows;
  }

  if (analysis.stop_reason_ == StopReason::kNone) {
    // Correspondences: extracted from the QoM table per the configured
    // assignment strategy (default: best target per source node, the set P
    // evaluated in Section 5). Pairs without label evidence are never
    // reported (see QMatchConfig).
    match::AssignmentInput assignment_input;
    assignment_input.sources = &src;
    assignment_input.targets = &tgt;
    assignment_input.score = [&](size_t i, size_t j) { return at(i, j).qom; };
    if (config_.require_label_evidence) {
      assignment_input.eligible = [&](size_t i, size_t j) {
        return at(i, j).label_cls != qom::AxisMatch::kNone;
      };
    }
    assignment_input.threshold = config_.threshold;
    assignment_input.ambiguity_margin = config_.ambiguity_margin;
    analysis.result_.correspondences =
        match::SelectCorrespondences(assignment_input, config_.assignment);
    analysis.result_.schema_qom = at(0, 0).qom;
    return analysis;
  }

  // Stopped early: extract the monotone partial result. Completed rows are
  // bit-identical to the uninterrupted run (a row only reads strictly
  // deeper rows, which were complete before it started), and kBestPerSource
  // decides each source node from its own row alone — so restricting the
  // assignment to completed rows reproduces exactly the correspondences the
  // full run reports for those sources. The injective strategies compete
  // across rows and cannot be restricted soundly; they report nothing.
  QMATCH_COUNTER_ADD("qmatch.treematch.stopped_tables", 1);
  const size_t completed = analysis.completed_rows_;
  if (config_.assignment == match::AssignmentStrategy::kBestPerSource &&
      completed > 0) {
    std::vector<const xsd::SchemaNode*> done_sources;
    std::vector<size_t> done_rows;
    done_sources.reserve(completed);
    done_rows.reserve(completed);
    for (size_t i = 0; i < n; ++i) {
      if (row_done[i] != 0) {
        done_sources.push_back(src[i]);
        done_rows.push_back(i);
      }
    }
    match::AssignmentInput partial_input;
    partial_input.sources = &done_sources;
    partial_input.targets = &tgt;
    partial_input.score = [&](size_t i, size_t j) {
      return at(done_rows[i], j).qom;
    };
    if (config_.require_label_evidence) {
      partial_input.eligible = [&](size_t i, size_t j) {
        return at(done_rows[i], j).label_cls != qom::AxisMatch::kNone;
      };
    }
    partial_input.threshold = config_.threshold;
    partial_input.ambiguity_margin = config_.ambiguity_margin;
    analysis.result_.correspondences =
        match::SelectCorrespondences(partial_input, config_.assignment);
  }
  // The schema-level QoM lives in the root pair, which is computed last;
  // report it only when that row actually finished.
  if (row_done[0] != 0) analysis.result_.schema_qom = at(0, 0).qom;
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
  match::SimilarityMatrix matrix(analysis.source_nodes_,
                                 analysis.target_nodes_);
  const size_t m = analysis.target_nodes_.size();
  for (size_t i = 0; i < analysis.source_nodes_.size(); ++i) {
    double* row = matrix.row(i);
    for (size_t j = 0; j < m; ++j) {
      row[j] = analysis.table_[i * m + j].qom;
    }
  }
  return matrix;
}

}  // namespace qmatch::core
