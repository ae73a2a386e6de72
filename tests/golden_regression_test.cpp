// Golden regression tests: the exact correspondences, per-pair scores,
// root QoM and quality-vs-gold metrics of the default QMatch configuration
// on the five paper domains are snapshotted under data/expected/*.qom.
// Any behaviour change — intended or not — shows up as a readable diff.
//
// The production path (QMatch::Analyze, i.e. the SoA table fill of
// DESIGN.md §13) both writes and checks the snapshots; match_kernel_diff_test
// holds that fill bit-identical to the literal Fig. 3 oracle.
//
// To regenerate after an *intentional* scoring change:
//   ./golden_regression_test --update-golden
// then review the data/expected diff like any other code change.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/file_util.h"
#include "common/string_util.h"
#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "eval/metrics.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace qmatch {

// Set from main before InitGoogleTest; not in the anonymous namespace so
// main (outside qmatch) can name it.
bool g_update_golden = false;

namespace {

std::string GoldenPath(const std::string& task_name) {
  return std::string(QMATCH_SOURCE_DIR) + "/data/expected/" + task_name +
         ".qom";
}

/// Renders the observable outcome of one match run. Scores print with 12
/// significant digits — far below the bit-identity the kernel-oracle
/// tests enforce, but tight enough that any real scoring change moves the
/// snapshot.
std::string Snapshot(const std::string& task_name, const xsd::Schema& source,
                     const xsd::Schema& target, const MatchResult& result,
                     const eval::QualityMetrics* metrics) {
  std::string out;
  out += StrFormat("# QMatch golden snapshot — task %s (default config)\n",
                   task_name.c_str());
  out += StrFormat("schema %s -> %s\n", source.name().c_str(),
                   target.name().c_str());
  out += StrFormat("schema_qom %.12g\n", result.schema_qom);
  if (metrics != nullptr) {
    out += StrFormat(
        "quality precision=%.6f recall=%.6f overall=%.6f f1=%.6f "
        "(%zu/%zu/%zu)\n",
        metrics->precision, metrics->recall, metrics->overall, metrics->f1,
        metrics->true_positives, metrics->returned, metrics->real);
  }
  out += StrFormat("correspondences %zu\n", result.correspondences.size());
  // MatchResult order is deterministic (assignment iterates sources in
  // preorder), so the snapshot needs no extra sorting.
  for (const Correspondence& c : result.correspondences) {
    out += StrFormat("%s -> %s %.12g\n", c.source->Path().c_str(),
                     c.target->Path().c_str(), c.score);
  }
  return out;
}

/// Gates `snapshot` against the golden file for `task_name` (or rewrites it
/// under --update-golden).
void CheckGolden(const std::string& task_name, const std::string& snapshot) {
  const std::string path = GoldenPath(task_name);
  if (g_update_golden) {
    // Atomic: an interrupted --update-golden run must not leave a torn
    // golden file that later runs diff against.
    ASSERT_TRUE(WriteFileAtomic(path, snapshot).ok()) << path;
    std::printf("updated %s\n", path.c_str());
    return;
  }
  Result<std::string> golden = ReadFile(path);
  ASSERT_TRUE(golden.ok())
      << path << " missing — run golden_regression_test --update-golden "
      << "and commit data/expected/";
  EXPECT_EQ(golden.value(), snapshot)
      << "snapshot drift for task " << task_name
      << "; if intentional, regenerate with --update-golden and review the "
      << "data/expected diff";
}

class GoldenRegressionTest : public testing::TestWithParam<size_t> {};

TEST_P(GoldenRegressionTest, MatchesSnapshot) {
  const datagen::MatchTask& task = datagen::Tasks()[GetParam()];
  const xsd::Schema source = task.source();
  const xsd::Schema target = task.target();
  const MatchResult result = core::QMatch().Match(source, target);
  const eval::QualityMetrics metrics = eval::Evaluate(result, task.gold());
  CheckGolden(task.name,
              Snapshot(task.name, source, target, result, &metrics));
}

std::string GoldenName(const testing::TestParamInfo<size_t>& info) {
  return datagen::Tasks()[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(PaperDomains, GoldenRegressionTest,
                         testing::Range<size_t>(0, 5), GoldenName);

TEST(GoldenRegressionSetupTest, CoversTheFivePaperDomains) {
  ASSERT_EQ(datagen::Tasks().size(), 5u);
  for (const datagen::MatchTask& task : datagen::Tasks()) {
    EXPECT_FALSE(task.gold().empty()) << task.name;
  }
}

TEST(GoldenRegressionTest, GeneratedProteinScalePair) {
  // Seed-pinned synthetic pair at the paper's Protein shape (231-element
  // source vs 3753-element target, protein vocabulary) — the table fill's
  // headline workload, snapshotted so scoring regressions at scale are
  // caught even where no hand-made gold standard exists.
  datagen::GeneratorOptions small;
  small.seed = 20260808;
  small.element_count = 231;
  small.max_depth = 6;
  small.domain = datagen::Domain::kProtein;
  small.name = "GenPirScale";
  datagen::GeneratorOptions big;
  big.seed = 20260809;
  big.element_count = 3753;
  big.max_depth = 7;
  big.domain = datagen::Domain::kProtein;
  big.name = "GenPdbScale";
  const xsd::Schema source = datagen::GenerateSchema(small);
  const xsd::Schema target = datagen::GenerateSchema(big);

  const MatchResult result = core::QMatch().Match(source, target);
  CheckGolden("GeneratedProteinScale", Snapshot("GeneratedProteinScale", source,
                                                target, result, nullptr));
}

}  // namespace
}  // namespace qmatch

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      qmatch::g_update_golden = true;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
