// Exactness soak for MatchEngineCacheStats under contention: 8 threads
// hammer the untyped Match over more distinct pairs than the cache holds,
// and the accounting must stay *exact* — every lookup is exactly one hit or
// one miss (hits + misses == lookups), `entries` never exceeds capacity and
// settles at min(distinct pairs, capacity), and evictions equal the stores
// the capacity could not keep. A second soak races hits that rehydrate
// schemas of a few hundred nodes (outside the cache lock) against stores,
// evictions and persist compactions. Runs under `ctest -L soak` alongside
// the thread-pool soak, and under ASan/TSan via `scripts/ci.sh stress`.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/random.h"
#include "core/qmatch.h"
#include "datagen/generator.h"

namespace qmatch::core {
namespace {

std::vector<xsd::Schema> GeneratedSchemas(size_t count,
                                          size_t base_elements = 8) {
  std::vector<xsd::Schema> schemas;
  schemas.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    datagen::GeneratorOptions options;
    options.seed = 4200 + k;
    options.element_count = base_elements + k % 5;
    options.max_depth = 3;
    options.name = "CacheSoak" + std::to_string(k);
    schemas.push_back(datagen::GenerateSchema(options));
  }
  return schemas;
}

TEST(EngineCacheSoakTest, StatsStayExactUnderEightThreadContention) {
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 400;
  constexpr size_t kCacheCapacity = 6;
  constexpr size_t kDistinctTargets = 16;  // > capacity → constant eviction

  MatchEngineOptions options;
  options.threads = 1;  // per-call work sequential; contention is across calls
  options.cache_capacity = kCacheCapacity;
  MatchEngine engine(options);

  const std::vector<xsd::Schema> schemas =
      GeneratedSchemas(kDistinctTargets + 1);
  const xsd::Schema& query = schemas[0];

  std::atomic<size_t> total_lookups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      size_t lookups = 0;
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        // Distinct (query, target) pairs cycle so every thread both hits
        // and misses; offsetting by the thread index decorrelates the
        // per-thread access order.
        const xsd::Schema& target =
            schemas[1 + (op + t * 3) % kDistinctTargets];
        MatchResult result = engine.Match(query, target);
        EXPECT_FALSE(result.algorithm.empty());
        ++lookups;  // the untyped Match does exactly one cache lookup
      }
      total_lookups.fetch_add(lookups);
    });
  }
  for (std::thread& t : threads) t.join();

  const MatchEngineCacheStats stats = engine.cache_stats();
  // Exactly-once accounting: every lookup was tallied as a hit or a miss,
  // never both, never dropped.
  EXPECT_EQ(stats.hits + stats.misses, total_lookups.load());
  EXPECT_EQ(total_lookups.load(), kThreads * kOpsPerThread);
  // The cache is saturated: full to capacity, never over it.
  EXPECT_EQ(stats.entries, kCacheCapacity);
  // Every miss computed and stored; stores beyond capacity evicted. Under
  // concurrency two threads can miss the same key and double-store (the
  // second store replaces in place, no eviction), so evictions are bounded
  // by — not equal to — misses minus resident entries.
  EXPECT_LE(stats.evictions, stats.misses - stats.entries);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(EngineCacheSoakTest, EntriesTracksDistinctKeysBelowCapacity) {
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 32;
  MatchEngine engine(options);
  const std::vector<xsd::Schema> schemas = GeneratedSchemas(5);
  for (int round = 0; round < 3; ++round) {
    for (size_t k = 1; k < schemas.size(); ++k) {
      (void)engine.Match(schemas[0], schemas[k]);
    }
  }
  const MatchEngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 4u);  // one per distinct pair, no phantom entries
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 8u);  // two further rounds of four
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EngineCacheSoakTest, LargeHitsRaceStoresEvictionsAndCompaction) {
  constexpr size_t kThreads = 6;
  constexpr size_t kOpsPerThread = 40;
  constexpr size_t kCacheCapacity = 4;
  constexpr size_t kHotTargets = 3;   // mostly resident: the hits
  constexpr size_t kColdTargets = 3;  // push the hot ones out now and then

  const std::string dir = ::testing::TempDir() + "qmatch_cache_soak_" +
                          std::to_string(::getpid());
  for (const char* file : {"/snapshot.qms", "/journal.qmj"}) {
    std::remove((dir + file).c_str());
  }
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = kCacheCapacity;
  options.persist_dir = dir;
  options.persist_compact_interval = 4;  // stores compact too
  MatchEngine engine(options);
  ASSERT_TRUE(engine.persist_enabled());

  const std::vector<xsd::Schema> schemas =
      GeneratedSchemas(1 + kHotTargets + kColdTargets, /*base_elements=*/200);
  const xsd::Schema& query = schemas[0];
  // Reference answers, pointing into the very schema objects the engine
  // rehydrates against, so hits must reproduce them pointer for pointer.
  std::vector<MatchResult> expected;
  for (size_t k = 1; k < schemas.size(); ++k) {
    expected.push_back(QMatch().Match(query, schemas[k]));
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> compactions{0};
  std::thread compactor([&] {
    while (!done.load()) {
      EXPECT_TRUE(engine.CompactPersist().ok());
      compactions.fetch_add(1);
      // Each compaction fsyncs a snapshot; pace them rather than spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::atomic<size_t> total_lookups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(77 + t);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        const size_t k = rng.Bernoulli(0.8)
                             ? rng.Uniform(kHotTargets)
                             : kHotTargets + rng.Uniform(kColdTargets);
        const MatchResult result = engine.Match(query, schemas[1 + k]);
        total_lookups.fetch_add(1);
        const MatchResult& want = expected[k];
        EXPECT_EQ(std::bit_cast<uint64_t>(result.schema_qom),
                  std::bit_cast<uint64_t>(want.schema_qom));
        ASSERT_EQ(result.correspondences.size(), want.correspondences.size());
        for (size_t i = 0; i < want.correspondences.size(); ++i) {
          EXPECT_EQ(result.correspondences[i].source,
                    want.correspondences[i].source);
          EXPECT_EQ(result.correspondences[i].target,
                    want.correspondences[i].target);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  compactor.join();

  const MatchEngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(total_lookups.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.misses, total_lookups.load());
  EXPECT_EQ(stats.entries, kCacheCapacity);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(compactions.load(), 0u);
}

}  // namespace
}  // namespace qmatch::core
