// Validates the paper's complexity claim (Section 4: "The running time of
// the algorithm lies in O(nm)") empirically: generated schema pairs are
// swept over sizes and the hybrid's runtime is reported per node pair.
// If the claim holds, ns/pair stays roughly flat as n·m grows by orders
// of magnitude.
//
// The *_Threads benchmarks sweep the MatchEngine over 1/2/4/8 threads on
// the paper's largest workload (the PIR×PDB protein pair, 231×3753
// elements) and on a corpus batch — the wall-clock speedup columns for the
// parallel engine. Caching is disabled so every iteration measures a full
// table fill; correspondences are bit-identical at every thread count
// (enforced separately by core_engine_test).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "obs/obs.h"

namespace {

using namespace qmatch;

void BM_HybridScaling(benchmark::State& state) {
  const size_t elements = static_cast<size_t>(state.range(0));
  datagen::GeneratorOptions options;
  options.element_count = elements;
  options.max_depth = 6;
  options.min_fanout = 2;
  options.max_fanout = 6;
  options.domain = datagen::Domain::kProtein;
  options.seed = 42;
  options.name = "Scale";
  xsd::Schema source = datagen::GenerateSchema(options);
  datagen::PerturbOptions perturb;
  perturb.seed = 43;
  xsd::Schema target = datagen::Perturb(source, perturb, nullptr);

  core::QMatch matcher;
  for (auto _ : state) {
    MatchResult result = matcher.Match(source, target);
    benchmark::DoNotOptimize(result);
  }
  const double pairs = static_cast<double>(source.NodeCount()) *
                       static_cast<double>(target.NodeCount());
  state.counters["pairs"] = pairs;
  state.counters["ns_per_pair"] = benchmark::Counter(
      pairs, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}

BENCHMARK(BM_HybridScaling)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

// One large match (PIR 231 x PDB 3753 elements), row-parallel table fill.
void BM_EnginePirPdb_Threads(benchmark::State& state) {
  static const xsd::Schema* pir = new xsd::Schema(datagen::MakePir());
  static const xsd::Schema* pdb = new xsd::Schema(datagen::MakePdb());
  core::MatchEngineOptions options;
  options.threads = static_cast<size_t>(state.range(0));
  options.cache_capacity = 0;  // measure the fill, not the cache
  core::MatchEngine engine(options);
  for (auto _ : state) {
    MatchResult result = engine.Match(*pir, *pdb);
    benchmark::DoNotOptimize(result);
  }
  state.counters["pairs"] = static_cast<double>(pir->NodeCount()) *
                            static_cast<double>(pdb->NodeCount());
  state.counters["threads"] = static_cast<double>(engine.threads());
}

BENCHMARK(BM_EnginePirPdb_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// A corpus batch (32 generated pairs) fanned out across the pool — the
// schema_search / repository-ranking workload shape.
void BM_EngineCorpus_Threads(benchmark::State& state) {
  static const std::vector<std::pair<xsd::Schema, xsd::Schema>>* pairs = [] {
    auto* built = new std::vector<std::pair<xsd::Schema, xsd::Schema>>();
    for (uint64_t k = 0; k < 32; ++k) {
      datagen::GeneratorOptions options;
      options.seed = 500 + k;
      options.element_count = 120;
      options.max_depth = 6;
      options.domain = datagen::Domain::kProtein;
      options.name = "Corpus";
      xsd::Schema source = datagen::GenerateSchema(options);
      datagen::PerturbOptions perturb;
      perturb.seed = 600 + k;
      xsd::Schema target = datagen::Perturb(source, perturb, nullptr);
      built->emplace_back(std::move(source), std::move(target));
    }
    return built;
  }();
  std::vector<core::MatchJob> jobs;
  for (const auto& [source, target] : *pairs) {
    jobs.push_back(core::MatchJob{&source, &target});
  }
  core::MatchEngineOptions options;
  options.threads = static_cast<size_t>(state.range(0));
  options.cache_capacity = 0;
  core::MatchEngine engine(options);
  for (auto _ : state) {
    std::vector<core::EngineMatchResult> results = engine.MatchAll(jobs, {});
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
  state.counters["threads"] = static_cast<double>(engine.threads());
}

BENCHMARK(BM_EngineCorpus_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The cache-served path: the same pair matched repeatedly against a warm
// LRU cache. Measures lookup + pointer rehydration (no table fill), and —
// with --metrics-out — feeds nonzero engine.cache.hits into the exported
// metrics (the other engine benchmarks disable caching on purpose).
void BM_EngineCacheHit(benchmark::State& state) {
  static const xsd::Schema* pir = new xsd::Schema(datagen::MakePir());
  static const xsd::Schema* pdb = new xsd::Schema(datagen::MakePdb());
  core::MatchEngineOptions options;
  options.threads = 1;
  core::MatchEngine engine(options);
  MatchResult warmup = engine.Match(*pir, *pdb);  // fill the cache
  benchmark::DoNotOptimize(warmup);
  for (auto _ : state) {
    MatchResult result = engine.Match(*pir, *pdb);
    benchmark::DoNotOptimize(result);
  }
  core::MatchEngineCacheStats stats = engine.cache_stats();
  state.counters["cache_hits"] = static_cast<double>(stats.hits);
}

BENCHMARK(BM_EngineCacheHit)->Unit(benchmark::kMicrosecond);

}  // namespace

// BENCHMARK_MAIN plus the observability sinks: `--metrics-out=<file>` and
// `--trace-out=<file>` are stripped before google-benchmark sees argv (it
// rejects unknown flags) and written after the run.
int main(int argc, char** argv) {
  qmatch::obs::CliSink sink;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (!sink.TryParse(argv[i])) argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  qmatch::Status status = sink.Write();
  if (!status.ok()) {
    std::fprintf(stderr, "obs output failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
