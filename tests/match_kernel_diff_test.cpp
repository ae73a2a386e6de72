// Kernel-oracle layer (DESIGN.md §13): the production table fill (the
// structure-of-arrays kernel behind QMatch::Analyze) must be
// *bit-identical* to the literal Fig. 3 recursion in qmatch_oracle.h —
// every per-axis score, classification, coverage, category and weighted
// total, for every pair, on every input, in every MatchMode, sequential
// and pool-parallel, and (under fault injection) for the completed rows of
// a cancelled or deadline-stopped fill.
//
// Coverage: all ordered pairs of the shipped small paper schemas, the full
// Protein task (PIR 231 x PDB 3753 — the paper's largest), and a seeded
// generated population spanning 10..4000 nodes with perturbed partners.
// The sanitizer configurations (scripts/ci.sh asan/ubsan/tsan) run this
// same binary.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/file_util.h"
#include "common/thread_pool.h"
#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "fault/failpoint.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "match/property_matcher.h"
#include "match/soa_kernel.h"
#include "qmatch_oracle.h"
#include "xsd/parser.h"
#include "xsd/schema.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace qmatch::core {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Field-for-field bit equality of one table cell.
void ExpectPairIdentical(const PairQoM& got, const PairQoM& want,
                         const std::string& context) {
  EXPECT_TRUE(BitEqual(got.label, want.label)) << context << " label";
  EXPECT_TRUE(BitEqual(got.properties, want.properties))
      << context << " properties";
  EXPECT_TRUE(BitEqual(got.level, want.level)) << context << " level";
  EXPECT_TRUE(BitEqual(got.children, want.children)) << context << " children";
  EXPECT_TRUE(BitEqual(got.qom, want.qom)) << context << " qom";
  EXPECT_EQ(got.label_cls, want.label_cls) << context << " label_cls";
  EXPECT_EQ(got.properties_cls, want.properties_cls)
      << context << " properties_cls";
  EXPECT_EQ(got.level_cls, want.level_cls) << context << " level_cls";
  EXPECT_EQ(got.coverage, want.coverage) << context << " coverage";
  EXPECT_EQ(got.children_all_exact, want.children_all_exact)
      << context << " children_all_exact";
  EXPECT_EQ(got.category, want.category) << context << " category";
}

/// The same check without diagnostics, cheap enough for every cell of a
/// Protein-scale table; a mismatch is then reported field by field.
bool PairIdentical(const PairQoM& a, const PairQoM& b) {
  return BitEqual(a.label, b.label) && BitEqual(a.properties, b.properties) &&
         BitEqual(a.level, b.level) && BitEqual(a.children, b.children) &&
         BitEqual(a.qom, b.qom) && a.label_cls == b.label_cls &&
         a.properties_cls == b.properties_cls && a.level_cls == b.level_cls &&
         a.coverage == b.coverage &&
         a.children_all_exact == b.children_all_exact &&
         a.category == b.category;
}

/// Full-table equivalence of a production run against the oracle, cell by
/// cell via Analysis::Pair, plus the schema QoM (the root cell) and the
/// recorded mode.
void ExpectMatchesOracle(const QMatch::Analysis& got,
                         const std::vector<PairQoM>& oracle,
                         const xsd::Schema& source, const xsd::Schema& target,
                         MatchMode mode, const std::string& context) {
  ASSERT_EQ(got.stop_reason(), StopReason::kNone) << context;
  EXPECT_EQ(got.result().mode, mode) << context;
  const std::vector<const xsd::SchemaNode*> src = source.AllNodes();
  const std::vector<const xsd::SchemaNode*> tgt = target.AllNodes();
  ASSERT_EQ(oracle.size(), src.size() * tgt.size()) << context;
  ASSERT_FALSE(oracle.empty()) << context;
  EXPECT_TRUE(BitEqual(got.result().schema_qom, oracle[0].qom)) << context;
  for (size_t i = 0; i < src.size(); ++i) {
    for (size_t j = 0; j < tgt.size(); ++j) {
      const std::optional<PairQoM> cell = got.Pair(src[i], tgt[j]);
      ASSERT_TRUE(cell.has_value()) << context;
      const PairQoM& want = oracle[i * tgt.size() + j];
      if (PairIdentical(*cell, want)) continue;
      ExpectPairIdentical(*cell, want,
                          context + " pair (" + std::to_string(i) + "," +
                              std::to_string(j) + ")");
      return;  // one bad cell is enough
    }
  }
}

/// Diffs production against the oracle for one schema pair under one
/// mode, once per entry of `pools` (nullptr = sequential).
void DiffOnePair(const QMatch& matcher, const oracle::TreeMatchOracle& oracle,
                 const xsd::Schema& source, const xsd::Schema& target,
                 const TreeMatchOptions& tree,
                 const std::vector<ThreadPool*>& pools,
                 const std::string& context) {
  const std::vector<PairQoM> table = oracle.Table(matcher.config(), tree);
  for (ThreadPool* pool : pools) {
    const std::string where =
        context + (pool == nullptr ? " sequential" : " pool");
    ExpectMatchesOracle(matcher.Analyze(source, target, pool, nullptr, tree),
                        table, source, target, tree.mode, where);
    if (::testing::Test::HasFailure()) return;
  }
}

/// The oracle for one schema pair, with the paper-default axis options
/// (every matcher in this suite keeps them).
oracle::TreeMatchOracle MakeOracle(const xsd::Schema& source,
                                   const xsd::Schema& target) {
  const QMatchConfig defaults;
  return oracle::TreeMatchOracle(
      source, target,
      lingua::NameMatcher(&lingua::DefaultThesaurus(), defaults.name_options),
      defaults.property_options);
}

TreeMatchOptions ModeOptions(MatchMode mode, size_t cap = 3) {
  TreeMatchOptions options;
  options.mode = mode;
  options.children_depth_cap = cap;
  return options;
}

const std::vector<std::string>& SmallCorpusFiles() {
  // Every shipped schema except the two Protein giants (they get their own
  // dedicated full-scale test below; all-pairs over them would dominate
  // the suite's runtime for no added kernel coverage).
  static const std::vector<std::string> kFiles = {
      "Article.xsd",       "Book.xsd",    "DCMDItem.xsd", "DCMDOrder.xsd",
      "Human.xsd",         "Library.xsd", "PO1.xsd",      "PO2.xsd",
      "XBenchCatalog.xsd", "XBenchOrder.xsd"};
  return kFiles;
}

std::vector<xsd::Schema> LoadSmallCorpus() {
  std::vector<xsd::Schema> schemas;
  for (const std::string& file : SmallCorpusFiles()) {
    Result<std::string> text =
        ReadFile(std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + file);
    EXPECT_TRUE(text.ok()) << file;
    Result<xsd::Schema> schema = xsd::ParseSchema(text.value());
    EXPECT_TRUE(schema.ok()) << file << ": " << schema.status().ToString();
    schemas.push_back(std::move(schema).value());
  }
  return schemas;
}

TEST(KernelDiffTest, AllPairsOfShippedSchemasAllModes) {
  const QMatch matcher;
  const std::vector<xsd::Schema> schemas = LoadSmallCorpus();
  for (size_t a = 0; a < schemas.size(); ++a) {
    for (size_t b = 0; b < schemas.size(); ++b) {
      const oracle::TreeMatchOracle oracle = MakeOracle(schemas[a], schemas[b]);
      for (MatchMode mode :
           {MatchMode::kFull, MatchMode::kCappedDepth, MatchMode::kLabelOnly}) {
        DiffOnePair(matcher, oracle, schemas[a], schemas[b], ModeOptions(mode),
                    {nullptr},
                    SmallCorpusFiles()[a] + " x " + SmallCorpusFiles()[b] +
                        " mode=" + std::string(MatchModeName(mode)));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(KernelDiffTest, ProteinTaskFullScale) {
  // The paper's largest pair (PIR 231 x PDB 3753 = ~867k cells) — the
  // workload the SoA kernel exists for — must stay bit-identical at full
  // scale, sequentially and across a pool.
  const QMatch matcher;
  const datagen::MatchTask* protein = nullptr;
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    if (task.name == "Protein") protein = &task;
  }
  ASSERT_NE(protein, nullptr);
  const xsd::Schema source = protein->source();
  const xsd::Schema target = protein->target();
  ThreadPool pool(4);
  DiffOnePair(matcher, MakeOracle(source, target), source, target,
              ModeOptions(MatchMode::kFull), {nullptr, &pool}, "Protein");
}

/// The kernel configuration QMatch::Analyze builds from a default
/// QMatchConfig in kFull mode.
match::SoaKernelConfig DefaultKernelConfig(
    const lingua::NameMatcher& name_matcher) {
  const QMatchConfig defaults;
  match::SoaKernelConfig config;
  config.weights = defaults.weights;
  config.threshold = defaults.threshold;
  config.best_match_accumulation =
      defaults.child_accumulation == QMatchConfig::ChildAccumulation::kBestMatch;
  config.level_graded = defaults.level_mode == QMatchConfig::LevelMode::kGraded;
  config.leaf_to_inner_children_credit =
      defaults.leaf_to_inner_children_credit;
  config.name_matcher = &name_matcher;
  config.property_options = defaults.property_options;
  return config;
}

// --- The property axis --------------------------------------------------------

/// The 12 data/schemas plus 8 seeded generated schemas.
std::vector<xsd::Schema> PropertyCorpus() {
  std::vector<xsd::Schema> schemas = LoadSmallCorpus();
  for (const char* file : {"PIR.xsd", "PDB.xsd"}) {
    Result<std::string> text =
        ReadFile(std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + file);
    EXPECT_TRUE(text.ok()) << file;
    schemas.push_back(std::move(xsd::ParseSchema(text.value())).value());
  }
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    datagen::GeneratorOptions options;
    options.seed = seed;
    options.element_count = 80;
    options.domain = domains[seed % 4];
    schemas.push_back(datagen::GenerateSchema(options));
  }
  return schemas;
}

/// All 32 combinations of the five compare_* flags, each with
/// relaxed_credit 0.5 and 0.3.
std::vector<match::PropertyMatchOptions> EveryPropertyOptionSet() {
  std::vector<match::PropertyMatchOptions> sets;
  for (unsigned flags = 0; flags < 32; ++flags) {
    for (double credit : {0.5, 0.3}) {
      match::PropertyMatchOptions options;
      options.compare_kind = (flags & 1) != 0;
      options.compare_type = (flags & 2) != 0;
      options.compare_order = (flags & 4) != 0;
      options.compare_occurs = (flags & 8) != 0;
      options.compare_nillable = (flags & 16) != 0;
      options.relaxed_credit = credit;
      sets.push_back(options);
    }
  }
  return sets;
}

bool SameProperty(const match::PropertyMatch& a,
                  const match::PropertyMatch& b) {
  return a.cls == b.cls && BitEqual(a.score, b.score);
}

TEST(KernelDiffTest, PropertyKeyScoreEqualsMatchPropertiesOnEveryKeyPair) {
  // The kernel scores the property axis on packed descriptors; over every
  // ordered pair of the distinct descriptors of the whole corpus, under
  // every option set, that equals MatchProperties on representative nodes.
  const std::vector<xsd::Schema> schemas = PropertyCorpus();
  std::map<xsd::FlatSchema::PropertyKey, const xsd::SchemaNode*> reps;
  for (const xsd::Schema& schema : schemas) {
    const xsd::FlatSchema& flat = schema.Flat();
    for (size_t k = 0; k < flat.prop_keys.size(); ++k) {
      reps.emplace(flat.prop_keys[k], flat.nodes[flat.prop_rep[k]]);
    }
  }
  ASSERT_GT(reps.size(), 20u);
  for (const match::PropertyMatchOptions& options : EveryPropertyOptionSet()) {
    for (const auto& [source_key, source_node] : reps) {
      for (const auto& [target_key, target_node] : reps) {
        const match::PropertyMatch want =
            match::MatchProperties(*source_node, *target_node, options);
        const match::PropertyMatch got =
            match::MatchPropertyKeys(source_key, target_key, options);
        ASSERT_TRUE(SameProperty(got, want))
            << source_node->Path() << " vs " << target_node->Path();
        ASSERT_TRUE(got.verdicts.empty());
      }
    }
  }
}

TEST(KernelDiffTest, KernelPropertyMatrixEqualsMatchProperties) {
  // The kernel's property matrix itself, under every option set, on
  // neighbouring pairs of the corpus (PIR and PDB aside: their tables
  // would dominate the run for no added axis coverage).
  std::vector<xsd::Schema> schemas = PropertyCorpus();
  schemas.erase(schemas.begin() + 10, schemas.begin() + 12);
  const QMatch matcher;
  const lingua::NameMatcher name_matcher(&lingua::DefaultThesaurus(),
                                         matcher.config().name_options);
  match::SoaKernelConfig config = DefaultKernelConfig(name_matcher);
  for (const match::PropertyMatchOptions& options : EveryPropertyOptionSet()) {
    config.property_options = options;
    for (size_t k = 0; k < schemas.size(); ++k) {
      const xsd::FlatSchema& fs = schemas[k].Flat();
      const xsd::FlatSchema& ft = schemas[(k + 1) % schemas.size()].Flat();
      std::vector<char> row_done(fs.size(), 0);
      const match::SoaKernelResult run = match::SoaFillTable(
          fs, ft, config, nullptr, row_done, nullptr, nullptr, nullptr);
      const match::AxisMatrix& cells = run.table.properties;
      for (size_t p = 0; p < fs.prop_keys.size(); ++p) {
        for (size_t q = 0; q < ft.prop_keys.size(); ++q) {
          const match::PropertyMatch want = match::MatchProperties(
              *fs.nodes[fs.prop_rep[p]], *ft.nodes[ft.prop_rep[q]], options);
          ASSERT_TRUE(BitEqual(cells.score[p * cells.cols + q], want.score));
          ASSERT_EQ(static_cast<qom::AxisMatch>(cells.cls[p * cells.cols + q]),
                    want.cls == match::PropertyMatchClass::kExact
                        ? qom::AxisMatch::kExact
                    : want.cls == match::PropertyMatchClass::kRelaxed
                        ? qom::AxisMatch::kRelaxed
                        : qom::AxisMatch::kNone);
        }
      }
    }
  }
}

TEST(KernelDiffTest, FullCellTableOutputMatchesOracle) {
  // SoaFillTable's optional `table` output (Analyze passes null; the
  // served-path benchmark's layer replay passes a buffer) must hold every
  // cell bit-identical to the oracle and to the cell SoaCell rebuilds from
  // the columns, sequentially and across a pool.
  const QMatch matcher;
  const lingua::NameMatcher name_matcher(&lingua::DefaultThesaurus(),
                                         matcher.config().name_options);
  const match::SoaKernelConfig config = DefaultKernelConfig(name_matcher);
  const std::vector<std::pair<xsd::Schema, xsd::Schema>> pairs = [] {
    std::vector<std::pair<xsd::Schema, xsd::Schema>> out;
    out.emplace_back(datagen::MakePO1(), datagen::MakePO2());
    out.emplace_back(datagen::MakePir(), datagen::MakePdb());
    return out;
  }();
  ThreadPool pool(4);
  for (const auto& [source, target] : pairs) {
    const std::vector<PairQoM> want =
        MakeOracle(source, target)
            .Table(matcher.config(), ModeOptions(MatchMode::kFull));
    const xsd::FlatSchema& fs = source.Flat();
    const xsd::FlatSchema& ft = target.Flat();
    ASSERT_EQ(want.size(), fs.size() * ft.size());
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const std::string context = source.name() + " x " + target.name() +
                                  (p == nullptr ? " sequential" : " pool");
      std::vector<PairQoM> table(want.size());
      std::vector<char> row_done(fs.size(), 0);
      const match::SoaKernelResult run = match::SoaFillTable(
          fs, ft, config, table.data(), row_done, p, nullptr, nullptr);
      ASSERT_EQ(run.stop, StopReason::kNone) << context;
      ASSERT_EQ(run.completed_rows, fs.size()) << context;
      for (size_t i = 0; i < fs.size(); ++i) {
        for (size_t j = 0; j < ft.size(); ++j) {
          const PairQoM& got = table[i * ft.size() + j];
          const PairQoM rebuilt =
              match::SoaCell(fs, ft, config, run.table, i, j);
          const PairQoM& oracle = want[i * ft.size() + j];
          if (PairIdentical(got, oracle) && PairIdentical(rebuilt, oracle)) {
            continue;
          }
          const std::string where = context + " pair (" + std::to_string(i) +
                                    "," + std::to_string(j) + ")";
          ExpectPairIdentical(got, oracle, where + " table");
          ExpectPairIdentical(rebuilt, oracle, where + " SoaCell");
          return;
        }
      }
    }
  }
}

struct GeneratedCase {
  std::string name;
  xsd::Schema source;
  xsd::Schema target;
};

std::vector<GeneratedCase> GeneratedCases() {
  // Seeded sizes spanning the issue's 10..4000-node range; each source is
  // matched against a perturbed copy of itself (renames, moves, drops —
  // the realistic mapping workload) rather than an unrelated tree, plus
  // one deliberately asymmetric 4000x40 case.
  std::vector<GeneratedCase> cases;
  const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  const size_t sizes[] = {10, 60, 250, 700};
  for (size_t k = 0; k < 4; ++k) {
    datagen::GeneratorOptions options;
    options.seed = 31000 + k;
    options.element_count = sizes[k];
    options.max_depth = 3 + k;
    options.attribute_probability = 0.2;
    options.domain = domains[k];
    options.name = "KDiff" + std::to_string(sizes[k]);
    GeneratedCase c;
    c.name = options.name;
    c.source = datagen::GenerateSchema(options);
    datagen::PerturbOptions perturb;
    perturb.seed = 8800 + k;
    c.target = datagen::Perturb(c.source, perturb, nullptr);
    cases.push_back(std::move(c));
  }
  {
    // Asymmetric: a 4000-node haystack vs a 40-node needle (the corpus
    // retrieval shape), exercising wide CSR rows against narrow ones.
    datagen::GeneratorOptions big;
    big.seed = 32001;
    big.element_count = 4000;
    big.max_depth = 7;
    big.domain = datagen::Domain::kProtein;
    big.name = "KDiffBig4000";
    datagen::GeneratorOptions needle;
    needle.seed = 32002;
    needle.element_count = 40;
    needle.max_depth = 4;
    needle.domain = datagen::Domain::kProtein;
    needle.name = "KDiffSmall40";
    GeneratedCase c;
    c.name = "KDiff4000x40";
    c.source = datagen::GenerateSchema(big);
    c.target = datagen::GenerateSchema(needle);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// The generated cases, each with its oracle, built once and shared by the
/// tests that diff whole tables over them. (The oracle points at the
/// schemas' heap-owned nodes, which moving a Schema leaves in place.)
struct OracleCase {
  GeneratedCase pair;
  oracle::TreeMatchOracle oracle;
};
const std::vector<OracleCase>& GeneratedOracleCases() {
  static const std::vector<OracleCase> cases = [] {
    std::vector<OracleCase> out;
    for (GeneratedCase& c : GeneratedCases()) {
      oracle::TreeMatchOracle o = MakeOracle(c.source, c.target);
      out.push_back({std::move(c), std::move(o)});
    }
    return out;
  }();
  return cases;
}

TEST(KernelDiffTest, GeneratedCorporaAllModes) {
  // Every mode sequentially and across a 4-worker pool, plus the depth cap
  // at 1 and 5 (either side of the default 3) for kCappedDepth.
  const QMatch matcher;
  ThreadPool pool(4);
  struct Variant {
    MatchMode mode;
    size_t cap;
    std::vector<ThreadPool*> pools;
  };
  const Variant variants[] = {
      {MatchMode::kFull, 3, {nullptr, &pool}},
      {MatchMode::kCappedDepth, 3, {nullptr, &pool}},
      {MatchMode::kCappedDepth, 1, {nullptr}},
      {MatchMode::kCappedDepth, 5, {nullptr}},
      {MatchMode::kLabelOnly, 3, {nullptr, &pool}},
  };
  for (const auto& [c, oracle] : GeneratedOracleCases()) {
    for (const Variant& v : variants) {
      DiffOnePair(matcher, oracle, c.source, c.target,
                  ModeOptions(v.mode, v.cap), v.pools,
                  c.name + " mode=" + std::string(MatchModeName(v.mode)) +
                      " cap=" + std::to_string(v.cap));
      if (HasFailure()) return;
    }
  }
}

TEST(KernelDiffTest, NonDefaultConfigKnobs) {
  // The kernel mirrors every QMatchConfig knob the fill reads: the paper-
  // literal child accumulation, graded levels, custom weights/threshold.
  QMatchConfig config;
  config.child_accumulation = QMatchConfig::ChildAccumulation::kPaperLiteral;
  config.level_mode = QMatchConfig::LevelMode::kGraded;
  config.threshold = 0.35;
  config.weights.label = 0.5;
  config.weights.properties = 0.1;
  config.weights.level = 0.1;
  config.weights.children = 0.3;
  ASSERT_TRUE(config.Validate().ok());
  const QMatch matcher(config);
  for (const auto& [c, oracle] : GeneratedOracleCases()) {
    DiffOnePair(matcher, oracle, c.source, c.target,
                ModeOptions(MatchMode::kFull), {nullptr},
                c.name + " non-default config");
    if (HasFailure()) return;
  }
}

/// The stopped-run contract on the columnar table (DESIGN.md §10.3): the
/// qom/category columns are never zero-filled, so a stopped run reads
/// nothing from a row it did not complete — Root() is the all-zero
/// decomposition unless the root row finished, and Pair() on an
/// uncompleted row reports nothing.
void ExpectNothingFromIncompleteRows(const QMatch::Analysis& stopped,
                                     const xsd::Schema& source,
                                     const xsd::Schema& target,
                                     const std::string& context) {
  ASSERT_NE(stopped.stop_reason(), StopReason::kNone) << context;
  ASSERT_LT(stopped.completed_rows(), stopped.total_rows()) << context;
  ExpectPairIdentical(stopped.Root(), PairQoM{}, context + " root");
  EXPECT_TRUE(BitEqual(stopped.result().schema_qom, 0.0)) << context;
  const std::vector<const xsd::SchemaNode*> src = source.AllNodes();
  const std::vector<const xsd::SchemaNode*> tgt = target.AllNodes();
  EXPECT_FALSE(stopped.Pair(src[0], tgt[0]).has_value()) << context;
  size_t reported = 0;
  for (const xsd::SchemaNode* s : src) {
    reported += stopped.Pair(s, tgt.back()).has_value() ? 1u : 0u;
  }
  EXPECT_EQ(reported, stopped.completed_rows()) << context;
}

TEST(KernelDiffTest, CancelledBeforeTheFillReportsNothing) {
  const QMatch matcher;
  const xsd::Schema pir = datagen::MakePir();
  const xsd::Schema pdb = datagen::MakePdb();
  CancellationToken token;
  token.Cancel();
  ExecControl control;
  control.cancel = &token;
  const QMatch::Analysis stopped =
      matcher.Analyze(pir, pdb, nullptr, &control);
  EXPECT_EQ(stopped.stop_reason(), StopReason::kCancelled);
  EXPECT_EQ(stopped.completed_rows(), 0u);
  EXPECT_TRUE(stopped.result().correspondences.empty());
  ExpectNothingFromIncompleteRows(stopped, pir, pdb, "PIR x PDB pre-cancelled");
}

#if QMATCH_FAULT_ENABLED
/// The monotone-partial contract of DESIGN.md §10: every correspondence a
/// stopped run reports appears in the uninterrupted run with the same
/// target and a bit-identical score (kBestPerSource, the default, decides
/// each source from its own row), and every cell of a reporting source's
/// row is bit-identical to the full table's.
void ExpectPartialIsSubset(const QMatch::Analysis& partial,
                           const QMatch::Analysis& full,
                           const xsd::Schema& target,
                           const std::string& context) {
  for (const Correspondence& pc : partial.result().correspondences) {
    bool found = false;
    for (const Correspondence& fc : full.result().correspondences) {
      if (fc.source == pc.source) {
        EXPECT_EQ(fc.target, pc.target) << context;
        EXPECT_TRUE(BitEqual(fc.score, pc.score)) << context;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << context
                       << " reported a pair the full run never reports: "
                       << pc.source->Path();
    for (const xsd::SchemaNode* t : target.AllNodes()) {
      const std::optional<PairQoM> pp = partial.Pair(pc.source, t);
      const std::optional<PairQoM> fpair = full.Pair(pc.source, t);
      ASSERT_TRUE(pp.has_value()) << context;
      ASSERT_TRUE(fpair.has_value()) << context;
      ExpectPairIdentical(*pp, *fpair, context + " completed-row cell");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(KernelDiffTest, CancelledPartialsAreBitIdenticalSubsets) {
  // Mid-flight cancellation: slow every pair down via the
  // treematch.pair failpoint, cancel after a few row-times, and require
  // that (a) the fill stops with kCancelled and a non-trivial partial, and
  // (b) every completed-row cell and reported correspondence is
  // bit-identical to the uninterrupted run — the monotone-partial
  // contract of DESIGN.md §10.
  const QMatch matcher;
  std::vector<GeneratedCase> cases = GeneratedCases();
  const GeneratedCase& c = cases[1];  // 60 nodes x perturbed partner
  const QMatch::Analysis full = matcher.Analyze(c.source, c.target);
  const std::vector<const xsd::SchemaNode*> tgt = c.target.AllNodes();
  // ~1ms per pair => one table row takes ~|target| ms; cancel after about
  // four row-times so some rows complete and many do not.
  const auto cancel_after =
      std::chrono::milliseconds(4 * static_cast<int64_t>(tgt.size()));

  fault::FaultSpec slow;
  slow.action = fault::FaultAction::kDelay;
  slow.delay = std::chrono::milliseconds(1);
  fault::ScopedFailpoint fp("treematch.pair", slow);

  CancellationToken token;
  ExecControl control;
  control.cancel = &token;
  std::thread canceller([&token, cancel_after] {
    std::this_thread::sleep_for(cancel_after);
    token.Cancel();
  });
  const QMatch::Analysis partial =
      matcher.Analyze(c.source, c.target, nullptr, &control);
  canceller.join();
  const std::string context = c.name + " cancelled";
  ASSERT_EQ(partial.stop_reason(), StopReason::kCancelled) << context;
  EXPECT_GT(partial.completed_rows(), 0u)
      << context << ": cancellation landed before any row completed";
  EXPECT_LT(partial.completed_rows(), partial.total_rows()) << context;

  ExpectPartialIsSubset(partial, full, c.target, context);
}

TEST(KernelDiffTest, DeadlineStopsTheFillWithPartials) {
  const QMatch matcher;
  std::vector<GeneratedCase> cases = GeneratedCases();
  const GeneratedCase& c = cases[2];  // 250 nodes x perturbed partner
  const QMatch::Analysis full = matcher.Analyze(c.source, c.target);
  fault::FaultSpec slow;
  slow.action = fault::FaultAction::kDelay;
  slow.delay = std::chrono::milliseconds(1);
  fault::ScopedFailpoint fp("treematch.pair", slow);
  ExecControl control;
  control.deadline = Deadline::After(std::chrono::milliseconds(30));
  const QMatch::Analysis stopped =
      matcher.Analyze(c.source, c.target, nullptr, &control);
  EXPECT_EQ(stopped.stop_reason(), StopReason::kDeadlineExceeded);
  EXPECT_LT(stopped.completed_rows(), stopped.total_rows());
  ExpectPartialIsSubset(stopped, full, c.target, c.name + " deadline");
}
TEST(KernelDiffTest, CancelledProteinRunReportsOnlyCompletedRows) {
  // Deterministic mid-fill cancellation of PIR x PDB: the sequential fill
  // runs rows bottom-up (last preorder row first), and the treematch.pair
  // failpoint stalls the 5th pair of the 21st row until the canceller has
  // cancelled. Exactly 20 rows complete; their cells are bit-identical to
  // the uninterrupted run's, and nothing is read from the other rows.
  const QMatch matcher;
  const xsd::Schema pir = datagen::MakePir();
  const xsd::Schema pdb = datagen::MakePdb();
  const QMatch::Analysis full = matcher.Analyze(pir, pdb);
  const std::vector<const xsd::SchemaNode*> src = pir.AllNodes();
  const std::vector<const xsd::SchemaNode*> tgt = pdb.AllNodes();
  constexpr size_t kDoneRows = 20;

  fault::FaultSpec stall;
  stall.action = fault::FaultAction::kDelay;
  stall.delay = std::chrono::milliseconds(300);
  stall.fire_on_nth_hit = kDoneRows * tgt.size() + 5;
  fault::ScopedFailpoint fp("treematch.pair", stall);
  CancellationToken token;
  ExecControl control;
  control.cancel = &token;
  std::thread canceller([&token, &fp] {
    while (fp.stats().fires == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.Cancel();
  });
  const QMatch::Analysis partial =
      matcher.Analyze(pir, pdb, nullptr, &control);
  canceller.join();
  const std::string context = "PIR x PDB cancelled";
  ASSERT_EQ(partial.stop_reason(), StopReason::kCancelled) << context;
  ASSERT_EQ(partial.completed_rows(), kDoneRows) << context;
  ExpectNothingFromIncompleteRows(partial, pir, pdb, context);
  for (size_t i = 0; i < src.size(); ++i) {
    const bool done = i >= src.size() - kDoneRows;
    for (size_t j = 0; j < tgt.size(); j += done ? 1 : 97) {
      const std::optional<PairQoM> cell = partial.Pair(src[i], tgt[j]);
      ASSERT_EQ(cell.has_value(), done) << context << " row " << i;
      if (done && !PairIdentical(*cell, *full.Pair(src[i], tgt[j]))) {
        ExpectPairIdentical(*cell, *full.Pair(src[i], tgt[j]),
                            context + " row " + std::to_string(i));
        return;
      }
    }
  }
  ExpectPartialIsSubset(partial, full, pdb, context);
}
#endif  // QMATCH_FAULT_ENABLED

}  // namespace
}  // namespace qmatch::core
