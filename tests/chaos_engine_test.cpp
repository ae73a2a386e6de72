// Chaos suite for the match engine: randomized but seed-deterministic
// fault schedules driven through the typed MatchAll fan-out of one query
// against the shipped data/schemas/ corpus (parsed in memory), asserting
// the robustness contract end to end:
//
//  * no crash or leak under ASan/TSan (scripts/ci.sh chaos runs this
//    binary under both);
//  * with no fault armed, results are bit-identical to the sequential
//    QMatch reference;
//  * every request returns a typed Status — a deadline never hangs past
//    its budget plus a fixed slack;
//  * partial results are monotone: every correspondence a degraded run
//    reports is one the fault-free run also reports, bit-identically;
//  * the obs request counters account for every request, degraded or not.
//
// Seeds come from QMATCH_CHAOS_SEEDS (comma-separated, default "1,2,3");
// a failure log names the seed, so replay is one env var away. Excluded
// from the default ctest run via CONFIGURATIONS chaos (see
// tests/CMakeLists.txt); run it with `scripts/ci.sh chaos` or
// `ctest -C chaos -L chaos`.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/file_util.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "fault/failpoint.h"
#include "obs/obs.h"
#include "test_util.h"
#include "xsd/parser.h"

#ifndef QMATCH_SOURCE_DIR
#error "build must define QMATCH_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

#if !QMATCH_FAULT_ENABLED
#error "the chaos suite requires a -DQMATCH_FAULT=ON build"
#endif

namespace qmatch::core {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Sanitizer-scaled timing discipline shared across the labelled suites.
using qmatch::test::kDeadlineSlack;
using qmatch::test::kSanitized;

/// The shipped corpus, parsed once with no failpoint armed. Schemas are
/// stable in memory (the vector is never resized), so jobs can point into
/// it.
const std::vector<xsd::Schema>& CorpusSchemas() {
  static const std::vector<xsd::Schema> schemas = [] {
    static const char* kFiles[] = {
        "Article.xsd", "Book.xsd",    "DCMDItem.xsd",      "DCMDOrder.xsd",
        "Human.xsd",   "Library.xsd", "PDB.xsd",           "PIR.xsd",
        "PO1.xsd",     "PO2.xsd",     "XBenchCatalog.xsd", "XBenchOrder.xsd"};
    std::vector<xsd::Schema> parsed;
    for (const char* file : kFiles) {
      const std::string path =
          std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + file;
      Result<std::string> text = ReadFile(path);
      if (!text.ok()) {
        ADD_FAILURE() << path << ": " << text.status();
        continue;
      }
      xsd::ParseOptions options;
      options.schema_name = file;
      Result<xsd::Schema> schema = xsd::ParseSchema(*text, options);
      if (!schema.ok()) {
        ADD_FAILURE() << path << ": " << schema.status();
        continue;
      }
      parsed.push_back(std::move(*schema));
    }
    return parsed;
  }();
  return schemas;
}

/// One job per corpus schema, all against `query`.
std::vector<MatchJob> CorpusJobs(const xsd::Schema& query) {
  std::vector<MatchJob> jobs;
  for (const xsd::Schema& candidate : CorpusSchemas()) {
    jobs.push_back(MatchJob{&query, &candidate});
  }
  return jobs;
}

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("QMATCH_CHAOS_SEEDS");
  std::string spec = env != nullptr ? env : "1,2,3";
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) {
      seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (seeds.empty()) seeds = {1, 2, 3};
  return seeds;
}

MatchEngineOptions EngineOptions(size_t threads, size_t cache_capacity = 0) {
  MatchEngineOptions options;
  options.threads = threads;
  options.cache_capacity = cache_capacity;
  options.min_parallel_pairs = 1;
  return options;
}

/// "<source path>|<target path>" -> bit pattern of the score. Node
/// pointers differ between runs, so correspondences are compared by path.
std::map<std::string, uint64_t> CorrespondenceMap(const MatchResult& result) {
  std::map<std::string, uint64_t> map;
  for (const Correspondence& c : result.correspondences) {
    map[c.source->Path() + "|" + c.target->Path()] =
        std::bit_cast<uint64_t>(c.score);
  }
  return map;
}

/// Asserts `actual` ⊆ `reference` with bit-identical scores — the
/// monotone partial-result contract.
void ExpectSubsetOfReference(const MatchResult& actual,
                             const std::map<std::string, uint64_t>& reference,
                             const std::string& context) {
  for (const auto& [key, score_bits] : CorrespondenceMap(actual)) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end())
        << context << ": correspondence " << key
        << " reported under fault but absent from the fault-free run";
    EXPECT_EQ(it->second, score_bits)
        << context << ": correspondence " << key
        << " scored differently under fault";
  }
}

class ChaosEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }
};

TEST_F(ChaosEngineTest, FaultFreeCorpusRunIsBitIdenticalToReference) {
  // Failpoint sites are compiled in but disarmed: the corpus fan-out must
  // reproduce the sequential QMatch reference bit for bit.
  const xsd::Schema query = datagen::MakePO1();
  const std::vector<MatchJob> jobs = CorpusJobs(query);
  ASSERT_EQ(jobs.size(), 12u);
  const QMatch reference;
  MatchEngine engine(EngineOptions(4, /*cache_capacity=*/8));
  const std::vector<EngineMatchResult> results =
      engine.MatchAll(jobs, EngineRequestOptions{});
  ASSERT_EQ(results.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const std::string& name = jobs[i].target->name();
    ASSERT_TRUE(results[i].ok()) << name << ": " << results[i].status;
    const MatchResult expected = reference.Match(query, *jobs[i].target);
    EXPECT_EQ(std::bit_cast<uint64_t>(results[i].result.schema_qom),
              std::bit_cast<uint64_t>(expected.schema_qom))
        << name;
    EXPECT_EQ(CorrespondenceMap(results[i].result),
              CorrespondenceMap(expected))
        << name;
  }
}

TEST_F(ChaosEngineTest, SeededFaultSchedulesAlwaysReturnTypedStatuses) {
  const xsd::Schema query = datagen::MakePO1();
  const std::vector<MatchJob> jobs = CorpusJobs(query);

  // Fault-free reference per corpus schema, for the monotonicity check.
  std::vector<std::map<std::string, uint64_t>> reference;
  std::vector<uint64_t> reference_qom;
  {
    MatchEngine engine(EngineOptions(4));
    for (const EngineMatchResult& clean :
         engine.MatchAll(jobs, EngineRequestOptions{})) {
      ASSERT_TRUE(clean.ok()) << clean.status;
      reference.push_back(CorrespondenceMap(clean.result));
      reference_qom.push_back(std::bit_cast<uint64_t>(clean.result.schema_qom));
    }
  }

  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("QMATCH_CHAOS_SEEDS=" + std::to_string(seed));
    Random rng(0xC4A0C4A0ULL ^ (seed * 0x9E3779B97F4A7C15ULL));

    // --- derive this round's fault schedule from the seed --------------
    struct SiteSpec {
      const char* name;
      double arm_probability;
      bool allow_throw;
      bool allow_delay;
    };
    // treematch.pair runs O(n·m) times per match: keep its fire
    // probability low and its delay at 1ms so a full run stays bounded.
    // The schemas are parsed before any site is armed, so the parser's
    // failpoints are not on this path (net_protocol_test covers them on
    // the submit path).
    const SiteSpec kSites[] = {
        {"engine.cache.lookup", 0.4, false, false},
        {"engine.cache.store", 0.4, false, false},
        {"treematch.pair", 0.5, true, true},
        {"threadpool.task", 0.3, true, false},
    };
    for (const SiteSpec& site : kSites) {
      if (!rng.Bernoulli(site.arm_probability)) continue;
      fault::FaultSpec spec;
      const double roll = rng.NextDouble();
      if (site.allow_throw && roll < 0.25) {
        spec.action = fault::FaultAction::kThrow;
      } else if (site.allow_delay && roll < 0.5) {
        spec.action = fault::FaultAction::kDelay;
        spec.delay = milliseconds(1);
      } else {
        spec.action = fault::FaultAction::kError;
        spec.code = rng.Bernoulli(0.5) ? StatusCode::kIoError
                                       : StatusCode::kParseError;
      }
      spec.probability = std::string(site.name) == "treematch.pair"
                             ? 0.01 + 0.04 * rng.NextDouble()
                             : 0.1 + 0.5 * rng.NextDouble();
      spec.seed = rng.Next();
      if (rng.Bernoulli(0.3)) spec.max_fires = 1 + rng.Uniform(8);
      fault::FaultRegistry::Global().Arm(site.name, spec);
    }

    EngineRequestOptions options;
    const bool bounded = rng.Bernoulli(0.5);
    const milliseconds budget{20 + static_cast<int64_t>(rng.Uniform(60))};

#if QMATCH_OBS_ENABLED
    obs::Registry& registry = obs::Registry::Global();
    const uint64_t requests_before =
        registry.GetCounter("engine.requests").Value();
    const uint64_t outcomes_before =
        registry.GetCounter("engine.requests_ok").Value() +
        registry.GetCounter("engine.requests_deadline_exceeded").Value() +
        registry.GetCounter("engine.requests_cancelled").Value() +
        registry.GetCounter("engine.requests_overloaded").Value() +
        registry.GetCounter("engine.requests_resource_exhausted").Value() +
        registry.GetCounter("engine.requests_error").Value();
#endif

    MatchEngine engine(EngineOptions(4, /*cache_capacity=*/8));
    const steady_clock::time_point start = steady_clock::now();
    if (bounded) options.deadline = Deadline::After(budget);
    const std::vector<EngineMatchResult> results =
        engine.MatchAll(jobs, options);
    const auto elapsed = steady_clock::now() - start;
    fault::FaultRegistry::Global().DisarmAll();

    // Every job came back in its own slot with a typed status.
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < results.size(); ++i) {
      const EngineMatchResult& result = results[i];
      const std::string& name = jobs[i].target->name();
      // Monotone partial results: whatever was reported is a subset of
      // the fault-free run for this schema, bit-identically scored.
      ExpectSubsetOfReference(result.result, reference[i], name);
      if (result.ok()) {
        // A completed request is not merely a subset — it is the whole
        // fault-free result (injected cache misses, dropped stores and
        // contained throws may cost time, never correctness).
        EXPECT_EQ(CorrespondenceMap(result.result).size(),
                  reference[i].size())
            << name;
        EXPECT_EQ(std::bit_cast<uint64_t>(result.result.schema_qom),
                  reference_qom[i])
            << name;
        EXPECT_EQ(result.completed_rows, result.total_rows) << name;
      }
    }

    // A bounded request never hangs: the whole fan-out returns within
    // deadline + slack (per-pair polling).
    if (bounded) {
      EXPECT_LE(elapsed, budget + kDeadlineSlack)
          << "corpus fan-out overran its deadline";
    }

#if QMATCH_OBS_ENABLED
    // Counter accounting: every request (one per job) was tallied exactly
    // once, and the outcome counters sum to the request counter.
    const uint64_t requests_delta =
        registry.GetCounter("engine.requests").Value() - requests_before;
    const uint64_t outcomes_delta =
        registry.GetCounter("engine.requests_ok").Value() +
        registry.GetCounter("engine.requests_deadline_exceeded").Value() +
        registry.GetCounter("engine.requests_cancelled").Value() +
        registry.GetCounter("engine.requests_overloaded").Value() +
        registry.GetCounter("engine.requests_resource_exhausted").Value() +
        registry.GetCounter("engine.requests_error").Value() -
        outcomes_before;
    EXPECT_EQ(requests_delta, jobs.size());
    EXPECT_EQ(outcomes_delta, requests_delta);
#endif
  }
}

TEST_F(ChaosEngineTest, DeadlineIsHonoredWithinSlack) {
  // A 1ms delay per node pair makes the unbounded match take hundreds of
  // milliseconds; a 30ms deadline must cut it off within the slack bound.
  datagen::GeneratorOptions gen;
  gen.seed = 42;
  gen.element_count = 24;
  gen.name = "ChaosDeadline";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 43;
  const xsd::Schema target = datagen::GenerateSchema(gen);
  ASSERT_GE(source.NodeCount() * target.NodeCount(), 200u);

  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(1);
  fault::ScopedFailpoint armed("treematch.pair", spec);

  for (size_t threads : {1u, 4u}) {
    MatchEngine engine(EngineOptions(threads));
    EngineRequestOptions options;
    const milliseconds budget{30};
    options.deadline = Deadline::After(budget);
    const steady_clock::time_point start = steady_clock::now();
    const EngineMatchResult result = engine.Match(source, target, options);
    const auto elapsed = steady_clock::now() - start;
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
    EXPECT_LT(result.completed_rows, result.total_rows);
    EXPECT_LE(elapsed, budget + kDeadlineSlack)
        << "threads=" << threads << ": request overran its deadline";
  }
}

TEST_F(ChaosEngineTest, CancellationStopsPromptlyWithMonotonePartial) {
  datagen::GeneratorOptions gen;
  gen.seed = 77;
  gen.element_count = 24;
  gen.name = "ChaosCancel";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 78;
  const xsd::Schema target = datagen::GenerateSchema(gen);

  // Fault-free reference for the subset check.
  MatchEngine engine(EngineOptions(4));
  const MatchResult reference = engine.Match(source, target);
  const std::map<std::string, uint64_t> reference_map =
      CorrespondenceMap(reference);

  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(1);
  fault::ScopedFailpoint armed("treematch.pair", spec);

  CancellationToken token;
  EngineRequestOptions options;
  options.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(10));
    token.Cancel();
  });
  const steady_clock::time_point start = steady_clock::now();
  const EngineMatchResult result = engine.Match(source, target, options);
  const auto elapsed = steady_clock::now() - start;
  canceller.join();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_LT(result.completed_rows, result.total_rows);
  EXPECT_LE(elapsed, milliseconds(10) + kDeadlineSlack)
      << "cancellation did not stop the request promptly";
  ExpectSubsetOfReference(result.result, reference_map, "cancelled partial");
}

TEST_F(ChaosEngineTest, PartialResultIsNonTrivialAndMonotone) {
  // A deadline sized to land mid-table: the request must come back with
  // some completed rows, and everything it reports must be a bit-identical
  // subset of the fault-free result.
  datagen::GeneratorOptions gen;
  gen.seed = 99;
  gen.element_count = 30;
  gen.name = "ChaosPartial";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 100;
  const xsd::Schema target = datagen::GenerateSchema(gen);

  MatchEngine engine(EngineOptions(1));
  const MatchResult reference = engine.Match(source, target);
  const std::map<std::string, uint64_t> reference_map =
      CorrespondenceMap(reference);

  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(1);
  fault::ScopedFailpoint armed("treematch.pair", spec);

  // The table fills bottom row up at ~target.NodeCount() ms per row; pick
  // a budget of several row-times so a few rows complete before the stop.
  const auto budget =
      milliseconds(static_cast<int64_t>(4 * target.NodeCount()));
  EngineRequestOptions options;
  options.deadline = Deadline::After(budget);
  const EngineMatchResult result = engine.Match(source, target, options);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(result.completed_rows, 0u)
      << "deadline landed before any row completed; partial is trivial";
  EXPECT_LT(result.completed_rows, result.total_rows);
  ExpectSubsetOfReference(result.result, reference_map, "deadline partial");
}

TEST_F(ChaosEngineTest, ThrowingFailpointIsContainedAsInternalStatus) {
  const xsd::Schema source = datagen::MakePO1();
  const xsd::Schema target = datagen::MakePO2();
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kThrow;
  spec.fire_on_nth_hit = 10;
  spec.message = "chaos throw";
  for (size_t threads : {1u, 4u}) {
    MatchEngine engine(EngineOptions(threads));
    {
      fault::ScopedFailpoint armed("treematch.pair", spec);
      const EngineMatchResult result =
          engine.Match(source, target, EngineRequestOptions{});
      EXPECT_EQ(result.status.code(), StatusCode::kInternal)
          << "threads=" << threads;
      EXPECT_NE(result.status.message().find("chaos throw"),
                std::string::npos);
      EXPECT_TRUE(result.result.correspondences.empty());
    }
    // The engine (and its pool) survives: the next request is clean.
    const EngineMatchResult clean =
        engine.Match(source, target, EngineRequestOptions{});
    EXPECT_TRUE(clean.ok()) << clean.status;
    EXPECT_EQ(clean.completed_rows, clean.total_rows);
  }
}

TEST_F(ChaosEngineTest, BurstBeyondCapacityShedsTypedAndAccountsExactlyOnce) {
  // Overload scenario (ISSUE 4): a synchronized 16-way burst against an
  // engine whose admission capacity admits one request at a time with a
  // two-deep queue. Every request must come back with exactly one status
  // from {OK, kOverloaded, kDeadlineExceeded, kResourceExhausted} — no
  // hang, no crash, no untyped failure — and the obs outcome counters must
  // account for each request exactly once.
  datagen::GeneratorOptions gen;
  gen.seed = 4242;
  gen.element_count = 12;
  gen.name = "ChaosBurstSource";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 4243;
  gen.name = "ChaosBurstTarget";
  const xsd::Schema target = datagen::GenerateSchema(gen);

  // Slow the table fill so the burst actually overlaps.
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kDelay;
  spec.delay = milliseconds(1);
  fault::ScopedFailpoint armed("treematch.pair", spec);

  MatchEngineOptions engine_options = EngineOptions(2);
  engine_options.overload.admission.max_inflight_cost = 64;  // << one request
  engine_options.overload.admission.max_queue_depth = 2;
  MatchEngine engine(engine_options);

  constexpr size_t kBurst = 16;
#if QMATCH_OBS_ENABLED
  obs::Registry& registry = obs::Registry::Global();
  const uint64_t requests_before =
      registry.GetCounter("engine.requests").Value();
  const uint64_t outcomes_before =
      registry.GetCounter("engine.requests_ok").Value() +
      registry.GetCounter("engine.requests_deadline_exceeded").Value() +
      registry.GetCounter("engine.requests_cancelled").Value() +
      registry.GetCounter("engine.requests_overloaded").Value() +
      registry.GetCounter("engine.requests_resource_exhausted").Value() +
      registry.GetCounter("engine.requests_error").Value();
#endif

  std::vector<Status> statuses(kBurst);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kBurst);
  for (size_t i = 0; i < kBurst; ++i) {
    threads.emplace_back([&, i]() {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      EngineRequestOptions request;
      request.deadline = Deadline::After(std::chrono::seconds(30));
      statuses[i] = engine.Match(source, target, request).status;
    });
  }
  while (ready.load() < kBurst) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  size_t ok = 0, overloaded = 0, deadline = 0, exhausted = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    switch (statuses[i].code()) {
      case StatusCode::kOk: ++ok; break;
      case StatusCode::kOverloaded: ++overloaded; break;
      case StatusCode::kDeadlineExceeded: ++deadline; break;
      case StatusCode::kResourceExhausted: ++exhausted; break;
      default:
        ADD_FAILURE() << "request " << i << " returned untyped status "
                      << statuses[i];
    }
  }
  EXPECT_EQ(ok + overloaded + deadline + exhausted, kBurst);
  EXPECT_GE(ok, 1u) << "nothing got through a 16x burst";
  EXPECT_GE(overloaded, 1u) << "a 16x burst over a 2-deep queue never shed";
  EXPECT_GE(engine.admission().shed_total(), overloaded);
  // The controller drained completely: no capacity or queue entries leak.
  EXPECT_EQ(engine.admission().inflight_cost(), 0u);
  EXPECT_EQ(engine.admission().queue_depth(), 0u);

#if QMATCH_OBS_ENABLED
  const uint64_t requests_delta =
      registry.GetCounter("engine.requests").Value() - requests_before;
  const uint64_t outcomes_delta =
      registry.GetCounter("engine.requests_ok").Value() +
      registry.GetCounter("engine.requests_deadline_exceeded").Value() +
      registry.GetCounter("engine.requests_cancelled").Value() +
      registry.GetCounter("engine.requests_overloaded").Value() +
      registry.GetCounter("engine.requests_resource_exhausted").Value() +
      registry.GetCounter("engine.requests_error").Value() -
      outcomes_before;
  EXPECT_EQ(requests_delta, kBurst);
  EXPECT_EQ(outcomes_delta, requests_delta);
#endif
}

TEST_F(ChaosEngineTest, DegradedResultsAreDeterministicForAFixedSeed) {
  // Under saturation the ladder drops to label-only; two engines under the
  // same pressure must produce bit-identical degraded results, and those
  // must equal an explicitly pinned label-only run — degradation is a
  // deterministic function of (inputs, mode), not of scheduling noise.
  datagen::GeneratorOptions gen;
  gen.seed = 515;
  gen.element_count = 14;
  gen.name = "ChaosDegraded";
  const xsd::Schema source = datagen::GenerateSchema(gen);
  gen.seed = 516;
  const xsd::Schema target = datagen::GenerateSchema(gen);

  MatchEngineOptions saturated = EngineOptions(4);
  saturated.overload.admission.max_inflight_cost = 4;  // pressure == 1.0

  MatchEngine first(saturated);
  MatchEngine second(saturated);
  const EngineMatchResult a =
      first.Match(source, target, EngineRequestOptions{});
  const EngineMatchResult b =
      second.Match(source, target, EngineRequestOptions{});
  ASSERT_TRUE(a.ok()) << a.status;
  ASSERT_TRUE(b.ok()) << b.status;
  EXPECT_EQ(a.result.mode, MatchMode::kLabelOnly);
  EXPECT_EQ(b.result.mode, MatchMode::kLabelOnly);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.result.schema_qom),
            std::bit_cast<uint64_t>(b.result.schema_qom));
  EXPECT_EQ(CorrespondenceMap(a.result), CorrespondenceMap(b.result));

  // A pinned label-only Analyze produces the same bits without any
  // admission pressure.
  TreeMatchOptions label_only;
  label_only.mode = MatchMode::kLabelOnly;
  const MatchResult c =
      QMatch().Analyze(source, target, nullptr, nullptr, label_only)
          .TakeResult();
  EXPECT_EQ(c.mode, MatchMode::kLabelOnly);
  EXPECT_EQ(std::bit_cast<uint64_t>(c.schema_qom),
            std::bit_cast<uint64_t>(a.result.schema_qom));
  EXPECT_EQ(CorrespondenceMap(c), CorrespondenceMap(a.result));
}

TEST_F(ChaosEngineTest, ThreadPoolContainsThrowingTasks) {
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kThrow;
  spec.probability = 0.5;
  fault::ScopedFailpoint armed("threadpool.task", spec);
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  // ParallelFor from the same pool completes every index even while the
  // worker-side failpoint keeps killing helper tasks.
  std::atomic<size_t> loop_ran{0};
  pool.ParallelFor(256, [&loop_ran](size_t) {
    loop_ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(loop_ran.load(), 256u);
  // Submitted tasks either ran or were eaten by the failpoint *before*
  // running — but the process never died, which is the contract.
  EXPECT_LE(ran.load(), 64u);
}

}  // namespace
}  // namespace qmatch::core
