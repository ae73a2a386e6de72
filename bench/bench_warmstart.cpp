// Warm-start benchmark for the crash-safe persistence layer: how much does
// a snapshot-backed restart save over a cold process? For every datagen
// match task the bench measures
//
//   cold:  first Match on a fresh engine (cache empty) — the full O(n*m)
//          pairwise table + tree match;
//   warm:  engine restarted over the persist directory the cold run wrote,
//          first Match served from the recovered cache (path rehydration
//          only);
//
// plus the one-off warm-start costs: store load time and recovered-entry
// count. Recovered results are checked bit-identical to the cold compute —
// a mismatch fails the bench, because a fast wrong answer is worthless. So
// does a Protein warm request less than kMinProteinSpeedup times faster
// than cold: a hit must cost O(correspondences x depth), not a tree scan.
//
// Run: build/bench/bench_warmstart
// The numbers feed the warm-start section of EXPERIMENTS.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "persist/store.h"

namespace {

using namespace qmatch;
using std::chrono::duration_cast;
using std::chrono::microseconds;
using std::chrono::steady_clock;

constexpr double kMinProteinSpeedup = 100.0;

struct TaskTiming {
  std::string name;
  microseconds cold{0};
  microseconds warm{0};
  double qom = 0.0;
  bool identical = false;
};

microseconds Since(steady_clock::time_point start) {
  return duration_cast<microseconds>(steady_clock::now() - start);
}

bool BitIdentical(const MatchResult& a, const MatchResult& b) {
  if (a.schema_qom != b.schema_qom ||
      a.correspondences.size() != b.correspondences.size()) {
    return false;
  }
  for (size_t i = 0; i < a.correspondences.size(); ++i) {
    if (a.correspondences[i].score != b.correspondences[i].score) return false;
  }
  return true;
}

}  // namespace

int main() {
  const std::string dir =
      "/tmp/qmatch_bench_warmstart_" + std::to_string(::getpid());

  core::MatchEngineOptions options;
  options.threads = 1;  // sequential: isolates cache effect from fan-out
  options.persist_dir = dir;

  const std::vector<datagen::MatchTask>& tasks = datagen::Tasks();
  std::vector<TaskTiming> timings;
  std::vector<MatchResult> cold_results;

  // --- cold pass: fresh engine, empty store --------------------------------
  {
    core::MatchEngine cold(options);
    if (!cold.persist_enabled()) {
      std::fprintf(stderr, "persist store failed to open at %s\n",
                   dir.c_str());
      return 1;
    }
    for (const datagen::MatchTask& task : tasks) {
      const xsd::Schema source = task.source();
      const xsd::Schema target = task.target();
      TaskTiming timing;
      timing.name = task.name;
      const steady_clock::time_point start = steady_clock::now();
      MatchResult result = cold.Match(source, target);
      timing.cold = Since(start);
      timing.qom = result.schema_qom;
      timings.push_back(std::move(timing));
      cold_results.push_back(std::move(result));
    }
    // Destructor compacts the journal into the snapshot.
  }

  // --- warm pass: restart over the persisted state -------------------------
  const steady_clock::time_point load_start = steady_clock::now();
  core::MatchEngine warm(options);
  const microseconds load_time = Since(load_start);
  const persist::LoadStats& load = warm.persist_load_stats();
  const size_t recovered = warm.cache_stats().entries;

  for (size_t i = 0; i < tasks.size(); ++i) {
    const xsd::Schema source = tasks[i].source();
    const xsd::Schema target = tasks[i].target();
    const steady_clock::time_point start = steady_clock::now();
    const MatchResult result = warm.Match(source, target);
    timings[i].warm = Since(start);
    timings[i].identical = BitIdentical(result, cold_results[i]);
  }
  const core::MatchEngineCacheStats stats = warm.cache_stats();

  std::printf("== Warm start: cold vs recovered-cache first request ==\n\n");
  std::printf("store load: %lld us (%zu cache entries recovered, "
              "%zu snapshot + %zu journal records)\n\n",
              static_cast<long long>(load_time.count()), recovered,
              load.snapshot_records, load.journal_records);
  std::printf("%-10s %12s %12s %10s %8s %10s\n", "task", "cold (us)",
              "warm (us)", "speedup", "QoM", "identical");
  bool all_identical = true;
  double protein_speedup = 0.0;
  for (const TaskTiming& timing : timings) {
    // A warm request under the clock's resolution counts as 1 us.
    const double speedup =
        static_cast<double>(timing.cold.count()) /
        static_cast<double>(std::max<long long>(1, timing.warm.count()));
    all_identical = all_identical && timing.identical;
    if (timing.name == "Protein") protein_speedup = speedup;
    std::printf("%-10s %12lld %12lld %9.1fx %8.3f %10s\n", timing.name.c_str(),
                static_cast<long long>(timing.cold.count()),
                static_cast<long long>(timing.warm.count()), speedup,
                timing.qom, timing.identical ? "yes" : "NO");
  }
  const double hit_rate =
      (stats.hits + stats.misses) > 0
          ? static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses)
          : 0.0;
  std::printf("\nwarm hit rate: %.0f%% (%zu hits / %zu misses)\n",
              100.0 * hit_rate, stats.hits, stats.misses);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a recovered result differs from the cold compute\n");
    return 1;
  }
  std::printf("every recovered result is bit-identical to the cold "
              "compute.\n");
  if (protein_speedup < kMinProteinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: Protein warm request only %.1fx faster than cold "
                 "(need >= %.0fx)\n",
                 protein_speedup, kMinProteinSpeedup);
    return 1;
  }
  std::printf("Protein warm request %.1fx faster than cold (gate: >= "
              "%.0fx).\n",
              protein_speedup, kMinProteinSpeedup);
  return 0;
}
