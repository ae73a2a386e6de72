// Reproduces Figure 4 of the paper: runtime of the linguistic, structural
// and hybrid (QMatch) algorithms as a function of the total number of
// elements in both input schemas (19, 24, 91 and 3984 — the PO, Books,
// DCMD and Protein match tasks).
//
// The paper's claim is about the *shape*: the hybrid algorithm is slower
// than either individual algorithm (it runs both plus the QoM combination),
// and all grow superlinearly with n·m. On a 4-core host the hybrid is the
// slowest at Protein scale in every run; at the three small tasks it is
// within noise of the linguistic baseline (EXPERIMENTS.md, Figure 4).
// Absolute milliseconds differ from the paper's (Java on a 2 GHz
// Pentium 4).
//
// google-benchmark binary: each benchmark matches one task with one
// algorithm; the total element count is reported as a counter.
//
// Every row times a cold match. The linguistic and hybrid matchers keep a
// token-pair memo for their lifetime (lingua::TokenMemo), so those rows
// construct their matcher inside the timed loop: the constructor is a
// config copy plus an empty memo, and each iteration pays the token
// scoring the paper's per-match cost includes. The thesaurus's hypernym
// closures are built once per process, like the thesaurus itself.

#include <benchmark/benchmark.h>

#include <memory>

#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "lingua/default_thesaurus.h"
#include "match/linguistic_matcher.h"
#include "match/structural_matcher.h"

namespace {

using namespace qmatch;

struct TaskSchemas {
  xsd::Schema source;
  xsd::Schema target;
};

const TaskSchemas& GetTask(const std::string& name) {
  static auto& cache = *new std::map<std::string, TaskSchemas>();
  auto it = cache.find(name);
  if (it == cache.end()) {
    for (const datagen::MatchTask& task : datagen::Tasks()) {
      if (task.name == name) {
        it = cache.emplace(name, TaskSchemas{task.source(), task.target()})
                 .first;
        break;
      }
    }
  }
  return it->second;
}

void ReportElements(benchmark::State& state, const TaskSchemas& task) {
  state.counters["total_elements"] = static_cast<double>(
      task.source.ElementCount() + task.target.ElementCount());
}

void BM_Linguistic(benchmark::State& state, const std::string& task_name) {
  const TaskSchemas& task = GetTask(task_name);
  for (auto _ : state) {
    const match::LinguisticMatcher matcher(&lingua::DefaultThesaurus());
    MatchResult result = matcher.Match(task.source, task.target);
    benchmark::DoNotOptimize(result);
  }
  ReportElements(state, task);
}

void BM_Structural(benchmark::State& state, const std::string& task_name) {
  const TaskSchemas& task = GetTask(task_name);
  match::StructuralMatcher matcher;
  for (auto _ : state) {
    MatchResult result = matcher.Match(task.source, task.target);
    benchmark::DoNotOptimize(result);
  }
  ReportElements(state, task);
}

void BM_Hybrid(benchmark::State& state, const std::string& task_name) {
  const TaskSchemas& task = GetTask(task_name);
  for (auto _ : state) {
    const core::QMatch matcher;
    MatchResult result = matcher.Match(task.source, task.target);
    benchmark::DoNotOptimize(result);
  }
  ReportElements(state, task);
}

#define QMATCH_FIG4_TASK(task, elements)                                    \
  BENCHMARK_CAPTURE(BM_Linguistic, task##_##elements, #task)               \
      ->Unit(benchmark::kMillisecond);                                     \
  BENCHMARK_CAPTURE(BM_Structural, task##_##elements, #task)               \
      ->Unit(benchmark::kMillisecond);                                     \
  BENCHMARK_CAPTURE(BM_Hybrid, task##_##elements, #task)                   \
      ->Unit(benchmark::kMillisecond)

QMATCH_FIG4_TASK(PO, 19);
QMATCH_FIG4_TASK(Books, 24);
QMATCH_FIG4_TASK(DCMD, 91);
QMATCH_FIG4_TASK(Protein, 3984);

}  // namespace

BENCHMARK_MAIN();
