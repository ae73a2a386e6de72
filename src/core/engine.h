#ifndef QMATCH_CORE_ENGINE_H_
#define QMATCH_CORE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/admission.h"
#include "common/cancel.h"
#include "common/memory_budget.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/qmatch.h"
#include "match/matcher.h"
#include "persist/store.h"
#include "xsd/schema.h"

namespace qmatch::core {

/// Overload-protection knobs: admission control and memory budgets, whose
/// pressure drives the degradation ladder (its thresholds are constants in
/// engine.cc). Every default leaves the mechanism off, so an unconfigured
/// engine behaves bit-identically to one built before this layer existed.
struct OverloadOptions {
  /// Admission control over every match request (cost = |Ns|·|Nt| node
  /// pairs). Disabled while `admission.max_inflight_cost` is 0.
  AdmissionOptions admission;

  /// Process-wide memory budget shared by every request (0 = unlimited).
  uint64_t process_budget_bytes = 0;

  /// Per-request memory budget, charged into the process budget
  /// (0 = unlimited). Bounds one request's pairwise table + parse arena.
  uint64_t request_budget_bytes = 0;
};

/// Tuning knobs for the parallel batch-match engine.
struct MatchEngineOptions {
  /// Total worker parallelism including the calling thread; 0 picks the
  /// hardware concurrency. threads=1 is the sequential reference path.
  size_t threads = 0;

  /// Capacity (entries) of the bounded LRU result cache; 0 disables
  /// caching. One entry stores the correspondences of one
  /// (source fingerprint, target fingerprint, config) triple by path, so
  /// repeated corpus queries — the schema_search workload — skip the
  /// O(n·m) table entirely and only rehydrate node pointers (one root-down
  /// path descent per correspondence end).
  size_t cache_capacity = 128;

  /// Pairwise tables with fewer than this many (source, target) pairs are
  /// filled sequentially even when workers are available: below this size
  /// the fan-out overhead dominates the table fill.
  size_t min_parallel_pairs = 2048;

  /// Overload protection (admission, budgets, degradation). All off by
  /// default.
  OverloadOptions overload;

  /// Directory of the crash-safe persistence layer (DESIGN.md §12). When
  /// set, the result cache is journaled there and reloaded on construction (warm start); recovered cache entries serve
  /// bit-identical QoM to a fresh compute. Entries whose config fingerprint
  /// does not match this engine's are dropped, never trusted. Empty (the
  /// default) = persistence off.
  std::string persist_dir;

  /// Journal appends between automatic compactions of the journal into the
  /// snapshot. 0 disables periodic compaction; shutdown still compacts.
  size_t persist_compact_interval = 256;
};

/// Observability counters of the result cache.
struct MatchEngineCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t entries = 0;
};

/// One unit of corpus work: match *source against *target. Both schemas
/// must outlive the returned results.
struct MatchJob {
  const xsd::Schema* source = nullptr;
  const xsd::Schema* target = nullptr;
};

/// Per-request robustness envelope: a deadline for the whole request and an
/// optional cancellation token, both polled cooperatively down to
/// node-pair granularity inside TreeMatch. Default = unbounded,
/// uncancellable (the classic run-to-completion behaviour).
struct EngineRequestOptions {
  Deadline deadline;
  const CancellationToken* cancel = nullptr;
};

/// Typed outcome of one deadline/cancellation-aware match. `status` is the
/// request's type: OK, kDeadlineExceeded, kCancelled, or a load/parse/
/// internal error. A degraded request still carries whatever completed —
/// `result.correspondences` is always a subset of what the fault-free,
/// unbounded run would report (the monotone partial-result contract,
/// DESIGN.md §10).
struct EngineMatchResult {
  Status status;
  MatchResult result;
  /// Table-fill progress: completed_rows == total_rows iff the pairwise
  /// QoM table ran to completion (then status is OK or a load error).
  size_t completed_rows = 0;
  size_t total_rows = 0;

  bool ok() const { return status.ok(); }
};

/// MatchEngine — the production front door to QMatch for corpus-scale
/// workloads. Wraps one QMatch configuration with
///
///  1. a fixed ThreadPool that fans a batch of (source, target) pairs out
///     across workers with deterministic, input-ordered results
///     (`MatchAll`);
///  2. a row-parallel fill of the inner pairwise-QoM table for a single
///     large match (`Match`), sharded by source level so the bottom-up
///     memoisation is preserved — output is bit-identical to the
///     sequential path for every thread count (proven by
///     tests/core_engine_test.cpp, including under ThreadSanitizer);
///  3. a bounded LRU cache keyed on (schema fingerprint pair, config
///     hash), so repeated queries against a repository skip recomputation.
///
/// The engine is itself a `Matcher`, so it drops into every API that
/// consumes one (the composite matcher, the CLI).
/// All public methods are safe to call concurrently.
class MatchEngine : public Matcher {
 public:
  explicit MatchEngine(MatchEngineOptions options = {});
  explicit MatchEngine(QMatchConfig config, MatchEngineOptions options = {});
  /// `thesaurus` is borrowed (may be null) and must outlive the engine.
  MatchEngine(QMatchConfig config, const lingua::Thesaurus* thesaurus,
              MatchEngineOptions options);
  ~MatchEngine() override;

  std::string_view name() const override { return "hybrid"; }

  const QMatchConfig& config() const { return matcher_.config(); }

  /// Fingerprint of every config field that influences match output — the
  /// cache key component and the persistence-layer trust boundary (records
  /// from a differently-fingerprinted engine are dropped on load).
  uint64_t config_hash() const { return config_hash_; }

  /// Resolved total parallelism (>= 1).
  size_t threads() const { return threads_; }

  /// The Matcher view of the typed request: `Match(source, target, {})`'s
  /// result. With overload protection configured it can come back shed
  /// (empty) or degraded (`result.mode` says which); with the default
  /// options it is the full, bit-identical QMatch result.
  MatchResult Match(const xsd::Schema& source,
                    const xsd::Schema& target) const override;

  /// Raw pairwise QoM matrix, row-parallel for large tables (uncached —
  /// the matrix dominates the recomputation cost anyway).
  match::SimilarityMatrix Similarity(const xsd::Schema& source,
                                     const xsd::Schema& target) const override;

  /// Deadline/cancellation-aware single match. Never blocks past the
  /// deadline (modulo one node-pair of slack): the TreeMatch table fill
  /// polls the envelope at node-pair granularity and returns a typed
  /// partial result instead of running to completion. A FailpointException
  /// or other internal throw is converted to a kInternal status — the
  /// request always returns, typed. Degraded results are never cached.
  EngineMatchResult Match(const xsd::Schema& source, const xsd::Schema& target,
                          const EngineRequestOptions& options) const;

  /// Batch fan-out with a shared request envelope — one query against a
  /// repository is the paper's Section 1 retrieval scenario. results[i]
  /// always corresponds to jobs[i], whatever the thread count or
  /// completion order, and each carries its own typed status (a deadline
  /// trips jobs still running; completed jobs keep their full results). A
  /// single job gets the row-parallel fill; otherwise jobs fan out across
  /// the pool and each fills its table sequentially.
  std::vector<EngineMatchResult> MatchAll(
      const std::vector<MatchJob>& jobs,
      const EngineRequestOptions& options) const;

  MatchEngineCacheStats cache_stats() const;

  /// True when `persist_dir` was set and the store opened successfully.
  bool persist_enabled() const { return persist_ != nullptr; }

  /// Accounting of the warm-start load: what was recovered, dropped
  /// untrusted, or truncated as a torn journal tail. Zero-initialised when
  /// persistence is off.
  const persist::LoadStats& persist_load_stats() const {
    return persist_load_stats_;
  }

  /// Compacts the persistence journal into a fresh snapshot of the current
  /// in-memory cache. No-op (OK) when persistence is
  /// off. Runs automatically every `persist_compact_interval` journal
  /// appends and once more at destruction.
  Status CompactPersist() const;

  /// Replication hooks (DESIGN.md §15). The observer is invoked after each
  /// cache store with the *same record* the local journal receives, so a primary can ship
  /// its journal stream to a warm standby byte-for-byte. Callbacks run on
  /// whatever thread performed the mutation, outside the engine's cache
  /// lock; they must not call back into the engine.
  struct ReplicationObserver {
    std::function<void(const persist::CacheEntryRec&)> cache;
  };
  void SetReplicationObserver(ReplicationObserver observer);

  /// Applies one record received from a primary's replication stream: the
  /// same config-fingerprint trust boundary and idempotent last-wins upsert
  /// as warm-start replay, journaled into the local persist store (so a
  /// promoted standby is immediately durable) but NEVER echoed to the
  /// replication observer — a standby cannot loop records back. Safe to
  /// call concurrently with serving reads.
  void ApplyReplicatedCacheEntry(const persist::CacheEntryRec& rec);

  /// Full durable state (cache entries oldest-first, so warm-start replay
  /// reproduces today's LRU recency) as persistable records
  /// — what compaction writes, and the replication snapshot anchor a
  /// primary sends to a standby too far behind to catch up from the log.
  persist::StoreState ExportState() const;

  /// Live load signal in [0, 1]: max of admission pressure (cost/queue
  /// fill) and the process-budget watermark. Drives the degradation
  /// ladder; also exported as the `engine.pressure_permille` gauge.
  double Pressure() const;

  /// Read-only access to the overload-protection state (tests, benches).
  const AdmissionController& admission() const { return admission_; }
  const MemoryBudget& process_budget() const { return process_budget_; }

 private:
  struct CacheKey {
    uint64_t source_fp = 0;
    uint64_t target_fp = 0;
    uint64_t config_hash = 0;
    friend auto operator<=>(const CacheKey&, const CacheKey&) = default;
  };
  /// A cache entry is the record the journal and replication stream carry:
  /// paths, not node pointers, rehydrated against the caller's schemas on
  /// every hit. Immutable once published, so hits rehydrate it unlocked.
  using CacheRecord = std::shared_ptr<const persist::CacheEntryRec>;

  bool CacheLookup(const CacheKey& key, const xsd::Schema& source,
                   const xsd::Schema& target, MatchResult* out) const;
  void CacheStore(const CacheKey& key, const MatchResult& result) const;
  CacheKey MakeKey(const xsd::Schema& source, const xsd::Schema& target) const;
  /// The pool a table of `pairs` cells is filled on: null (sequential)
  /// below `min_parallel_pairs` or on a single-threaded engine.
  ThreadPool* PoolFor(size_t pairs) const;
  /// The one match body every public match call reaches: cache lookup,
  /// admission, degradation ladder, memory budgets, TreeMatch on `pool`
  /// (null = sequential fill, what a batch job uses), cache store.
  EngineMatchResult MatchRequest(const xsd::Schema& source,
                                 const xsd::Schema& target,
                                 const EngineRequestOptions& options,
                                 ThreadPool* pool) const;

  /// Opens the persistent store and warm-starts the cache from it. A store that cannot open leaves the engine fully
  /// functional, just cold.
  void InitPersist();
  /// Idempotent last-wins LRU upsert of one cache record, then capacity
  /// eviction; caller holds cache_mutex_ and has already verified the
  /// config hash.
  void UpsertCacheRecLocked(CacheRecord rec) const;
  /// Invoke the replication observer (if set) outside every engine lock.
  void NotifyReplicated(const persist::CacheEntryRec& rec) const;
  void MaybeCompactPersist() const;

  QMatch matcher_;
  uint64_t config_hash_ = 0;
  size_t threads_ = 1;
  MatchEngineOptions options_;
  mutable std::unique_ptr<ThreadPool> pool_;

  mutable AdmissionController admission_;
  mutable MemoryBudget process_budget_;

  mutable std::mutex cache_mutex_;
  mutable std::list<CacheRecord> cache_lru_;  // front = most recent
  mutable std::map<CacheKey, std::list<CacheRecord>::iterator> cache_index_;
  mutable MatchEngineCacheStats cache_stats_;

  /// Crash-safe persistence (null = off). The store has its own mutex;
  /// lock order is always engine mutex -> store mutex, never the reverse.
  mutable std::unique_ptr<persist::PersistentStore> persist_;
  persist::LoadStats persist_load_stats_;

  /// Replication observer (DESIGN.md §15); guarded by its own mutex so a
  /// primary can attach/detach while requests are in flight. Lock order:
  /// never held while any other engine lock is taken.
  mutable std::mutex observer_mutex_;
  ReplicationObserver observer_;
};

}  // namespace qmatch::core

#endif  // QMATCH_CORE_ENGINE_H_
