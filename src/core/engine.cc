#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <thread>
#include <utility>

#include "fault/failpoint.h"
#include "lingua/default_thesaurus.h"
#include "match/soa_kernel.h"
#include "obs/obs.h"

namespace qmatch::core {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashInt(uint64_t value, uint64_t& h) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
}

void HashDouble(double value, uint64_t& h) {
  HashInt(std::bit_cast<uint64_t>(value), h);
}

/// Hashes every field of the configuration that influences match output.
/// The thesaurus is deliberately absent: it is fixed per engine instance
/// and the cache never outlives the engine.
uint64_t HashConfig(const QMatchConfig& config) {
  uint64_t h = kFnvOffset;
  HashDouble(config.weights.label, h);
  HashDouble(config.weights.properties, h);
  HashDouble(config.weights.level, h);
  HashDouble(config.weights.children, h);
  HashDouble(config.threshold, h);
  HashInt(static_cast<uint64_t>(config.child_accumulation), h);
  HashInt(static_cast<uint64_t>(config.level_mode), h);
  HashInt(config.require_label_evidence ? 1u : 0u, h);
  HashDouble(config.ambiguity_margin, h);
  HashInt(static_cast<uint64_t>(config.assignment), h);
  HashDouble(config.leaf_to_inner_children_credit, h);
  const lingua::NameMatchOptions& name = config.name_options;
  HashDouble(name.synonym_score, h);
  HashDouble(name.hypernym_score, h);
  HashDouble(name.acronym_score, h);
  HashDouble(name.abbreviation_score, h);
  HashDouble(name.fuzzy_floor, h);
  HashDouble(name.exact_threshold, h);
  HashDouble(name.relaxed_threshold, h);
  const match::PropertyMatchOptions& prop = config.property_options;
  HashInt(prop.compare_kind ? 1u : 0u, h);
  HashInt(prop.compare_type ? 1u : 0u, h);
  HashInt(prop.compare_order ? 1u : 0u, h);
  HashInt(prop.compare_occurs ? 1u : 0u, h);
  HashInt(prop.compare_nillable ? 1u : 0u, h);
  HashDouble(prop.relaxed_credit, h);
  return h;
}

/// The degradation ladder (DESIGN.md §11.3): Pressure() at or above these
/// thresholds drops a request to kCappedDepth, then to kLabelOnly.
constexpr double kCappedDepthPressure = 0.75;
constexpr double kLabelOnlyPressure = 0.90;
/// Subtree-depth cap of the kCappedDepth rung (see TreeMatchOptions).
constexpr size_t kChildrenDepthCap = 3;

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Status StopStatus(StopReason reason, const std::string& what) {
  return reason == StopReason::kCancelled
             ? Status::Cancelled(what + ": request cancelled")
             : Status::DeadlineExceeded(what + ": request deadline exceeded");
}

/// Every typed request (direct or per batch job) is tallied exactly once
/// here, so `engine.requests` always equals the sum of the four outcome
/// counters — the accounting invariant the chaos suite asserts.
void CountRequestOutcome(const Status& status) {
  (void)status;  // only read by the obs hooks, which compile away with them
  QMATCH_COUNTER_ADD("engine.requests", 1);
  switch (status.code()) {
    case StatusCode::kOk:
      QMATCH_COUNTER_ADD("engine.requests_ok", 1);
      break;
    case StatusCode::kDeadlineExceeded:
      QMATCH_COUNTER_ADD("engine.requests_deadline_exceeded", 1);
      break;
    case StatusCode::kCancelled:
      QMATCH_COUNTER_ADD("engine.requests_cancelled", 1);
      break;
    case StatusCode::kOverloaded:
      QMATCH_COUNTER_ADD("engine.requests_overloaded", 1);
      break;
    case StatusCode::kResourceExhausted:
      QMATCH_COUNTER_ADD("engine.requests_resource_exhausted", 1);
      break;
    default:
      QMATCH_COUNTER_ADD("engine.requests_error", 1);
      break;
  }
}

}  // namespace

MatchEngine::MatchEngine(MatchEngineOptions options)
    : MatchEngine(QMatchConfig{}, std::move(options)) {}

MatchEngine::MatchEngine(QMatchConfig config, MatchEngineOptions options)
    : MatchEngine(std::move(config), &lingua::DefaultThesaurus(),
                  std::move(options)) {}

MatchEngine::MatchEngine(QMatchConfig config, const lingua::Thesaurus* thesaurus,
                         MatchEngineOptions options)
    : matcher_(std::move(config), thesaurus),
      threads_(ResolveThreads(options.threads)),
      options_(options),
      admission_(options.overload.admission),
      process_budget_(options.overload.process_budget_bytes) {
  config_hash_ = HashConfig(matcher_.config());
  // The calling thread participates in every ParallelFor, so `threads`
  // total parallelism needs threads-1 pool workers.
  pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  InitPersist();
}

MatchEngine::~MatchEngine() {
  if (persist_ != nullptr) {
    // Final compaction is best effort: persistence failpoints throw to
    // simulate crashes, and a destructor must absorb that (or any real
    // I/O throw) — the on-disk state stays consistent either way.
    try {
      (void)CompactPersist();
    } catch (...) {
    }
  }
}

void MatchEngine::InitPersist() {
  if (options_.persist_dir.empty()) return;
  persist::StoreState state;
  persist::LoadStats stats;
  Result<std::unique_ptr<persist::PersistentStore>> store =
      persist::PersistentStore::Open(options_.persist_dir, config_hash_,
                                     &state, &stats);
  if (!store.ok()) {
    // Persistence is an accelerator, never a dependency: a store that
    // cannot open leaves the engine fully functional, just cold.
    QMATCH_COUNTER_ADD("persist.open_failures", 1);
    return;
  }
  persist_ = std::move(*store);
  persist_load_stats_ = stats;
  size_t recovered = 0;
  size_t dropped = 0;
  if (options_.cache_capacity > 0) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    // Decoded order is oldest-first (snapshot order, then journal replay),
    // so pushing each record to the LRU front reproduces the recency order
    // the previous process shut down with, and capacity eviction drops the
    // oldest entries first.
    for (persist::CacheEntryRec& rec : state.cache_entries) {
      if (rec.config_hash != config_hash_) {
        // Written by a differently-configured engine: dropped, never
        // trusted — even though the file-level fingerprint matched.
        ++dropped;
        continue;
      }
      UpsertCacheRecLocked(
          std::make_shared<const persist::CacheEntryRec>(std::move(rec)));
      ++recovered;
    }
  }
  QMATCH_COUNTER_ADD("persist.recovered_entries", recovered);
  QMATCH_COUNTER_ADD("persist.dropped_entries", dropped);
  (void)recovered;
  (void)dropped;
}

void MatchEngine::UpsertCacheRecLocked(CacheRecord rec) const {
  const CacheKey key{rec->source_fp, rec->target_fp, rec->config_hash};
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    *it->second = std::move(rec);
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  } else {
    cache_lru_.push_front(std::move(rec));
    cache_index_[key] = cache_lru_.begin();
  }
  while (cache_lru_.size() > options_.cache_capacity) {
    const persist::CacheEntryRec& oldest = *cache_lru_.back();
    cache_index_.erase(
        CacheKey{oldest.source_fp, oldest.target_fp, oldest.config_hash});
    cache_lru_.pop_back();
    ++cache_stats_.evictions;
    QMATCH_COUNTER_ADD("engine.cache.evictions", 1);
  }
  cache_stats_.entries = cache_lru_.size();
  QMATCH_GAUGE_SET("engine.cache.entries", cache_lru_.size());
}

void MatchEngine::SetReplicationObserver(ReplicationObserver observer) {
  std::lock_guard<std::mutex> lock(observer_mutex_);
  observer_ = std::move(observer);
}

void MatchEngine::NotifyReplicated(const persist::CacheEntryRec& rec) const {
  std::function<void(const persist::CacheEntryRec&)> cb;
  {
    std::lock_guard<std::mutex> lock(observer_mutex_);
    cb = observer_.cache;
  }
  if (cb) cb(rec);
}

void MatchEngine::ApplyReplicatedCacheEntry(const persist::CacheEntryRec& rec) {
  if (rec.config_hash != config_hash_) {
    // A primary running a different match config cannot feed this engine:
    // the same trust boundary warm-start replay enforces.
    QMATCH_COUNTER_ADD("replica.dropped_records", 1);
    return;
  }
  if (options_.cache_capacity > 0) {
    auto shared = std::make_shared<const persist::CacheEntryRec>(rec);
    std::lock_guard<std::mutex> lock(cache_mutex_);
    UpsertCacheRecLocked(std::move(shared));
  }
  if (persist_ != nullptr) {
    const Status appended = persist_->AppendCache(rec);
    if (!appended.ok()) QMATCH_COUNTER_ADD("persist.append_dropped", 1);
    MaybeCompactPersist();
  }
}

persist::StoreState MatchEngine::ExportState() const {
  persist::StoreState state;
  std::vector<CacheRecord> cache;
  {
    // Only pointers are copied under the lock; the records themselves are
    // immutable, so the deep copy below cannot stall concurrent hits.
    std::lock_guard<std::mutex> lock(cache_mutex_);
    // Oldest first (see InitPersist): reverse LRU order.
    cache.assign(cache_lru_.rbegin(), cache_lru_.rend());
  }
  state.cache_entries.reserve(cache.size());
  for (const CacheRecord& rec : cache) state.cache_entries.push_back(*rec);
  return state;
}

Status MatchEngine::CompactPersist() const {
  if (persist_ == nullptr) return Status::OK();
  return persist_->Compact(ExportState());
}

void MatchEngine::MaybeCompactPersist() const {
  if (persist_ == nullptr || options_.persist_compact_interval == 0) return;
  if (persist_->appends_since_compact() < options_.persist_compact_interval) {
    return;
  }
  // Periodic compaction is opportunistic; a failed one just leaves the
  // journal longer until the next interval (or shutdown) retries.
  (void)CompactPersist();
}

MatchEngine::CacheKey MatchEngine::MakeKey(const xsd::Schema& source,
                                           const xsd::Schema& target) const {
  return CacheKey{source.Fingerprint(), target.Fingerprint(), config_hash_};
}

bool MatchEngine::CacheLookup(const CacheKey& key, const xsd::Schema& source,
                              const xsd::Schema& target,
                              MatchResult* out) const {
  // A poisoned lookup degrades to a miss: the caller recomputes and the
  // answer stays correct — the cache is an accelerator, never an oracle.
  if (QMATCH_FAILPOINT_FIRED("engine.cache.lookup")) {
    QMATCH_COUNTER_ADD("engine.cache.fault_misses", 1);
    return false;
  }
  CacheRecord rec;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      rec = *it->second;
    }
  }
  // Rehydrate outside the lock: the record is immutable and pinned by
  // `rec`, so a concurrent store or eviction cannot pull it away, and other
  // callers' hits never wait behind this one's path descents.
  bool hit = rec != nullptr;
  MatchResult result;
  if (hit) result.correspondences.reserve(rec->correspondences.size());
  for (size_t i = 0; hit && i < rec->correspondences.size(); ++i) {
    const persist::CorrespondenceRec& c = rec->correspondences[i];
    const xsd::SchemaNode* s = source.FindByPath(c.source_path);
    const xsd::SchemaNode* t = target.FindByPath(c.target_path);
    // A fingerprint collision or a path the caller's schema cannot resolve
    // is a miss: the caller recomputes (and its store overwrites the entry)
    // rather than get a result pointing into the wrong trees.
    hit = s != nullptr && t != nullptr;
    if (hit) result.correspondences.push_back(Correspondence{s, t, c.score});
  }
  if (rec != nullptr && !hit) {
    QMATCH_COUNTER_ADD("engine.cache.rehydration_failures", 1);
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    ++(hit ? cache_stats_.hits : cache_stats_.misses);
  }
  if (!hit) {
    QMATCH_COUNTER_ADD("engine.cache.misses", 1);
    return false;
  }
  result.algorithm = rec->algorithm;
  result.schema_qom = rec->schema_qom;
  QMATCH_COUNTER_ADD("engine.cache.hits", 1);
  QMATCH_COUNTER_ADD("engine.cache.rehydrated_correspondences",
                     result.correspondences.size());
  *out = std::move(result);
  return true;
}

void MatchEngine::CacheStore(const CacheKey& key,
                             const MatchResult& result) const {
  // A failed store is dropped silently (the entry is recomputed next time);
  // correctness never depends on the store landing.
  if (QMATCH_FAILPOINT_FIRED("engine.cache.store")) {
    QMATCH_COUNTER_ADD("engine.cache.dropped_stores", 1);
    return;
  }
  // One record serves the LRU, the local journal and the replication
  // stream alike.
  auto rec = std::make_shared<persist::CacheEntryRec>();
  rec->source_fp = key.source_fp;
  rec->target_fp = key.target_fp;
  rec->config_hash = key.config_hash;
  rec->algorithm = result.algorithm;
  rec->schema_qom = result.schema_qom;
  rec->correspondences.reserve(result.correspondences.size());
  for (const Correspondence& c : result.correspondences) {
    rec->correspondences.push_back(persist::CorrespondenceRec{
        c.source->Path(), c.target->Path(), c.score});
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    UpsertCacheRecLocked(rec);
  }
  if (persist_ != nullptr) {
    // Journal outside the cache lock (the store serializes on its own
    // mutex). CacheStore only ever sees full-fidelity results, so every
    // append is a trustworthy upsert; a failed append is dropped — the
    // entry is simply recomputed after the next restart.
    Status appended = persist_->AppendCache(*rec);
    if (!appended.ok()) {
      QMATCH_COUNTER_ADD("persist.append_dropped", 1);
    }
    MaybeCompactPersist();
  }
  NotifyReplicated(*rec);
}

ThreadPool* MatchEngine::PoolFor(size_t pairs) const {
  return (threads_ > 1 && pairs >= options_.min_parallel_pairs) ? pool_.get()
                                                                : nullptr;
}

MatchResult MatchEngine::Match(const xsd::Schema& source,
                               const xsd::Schema& target) const {
  return Match(source, target, EngineRequestOptions{}).result;
}

EngineMatchResult MatchEngine::Match(const xsd::Schema& source,
                                     const xsd::Schema& target,
                                     const EngineRequestOptions& options) const {
  return MatchRequest(source, target, options,
                      PoolFor(source.NodeCount() * target.NodeCount()));
}

match::SimilarityMatrix MatchEngine::Similarity(
    const xsd::Schema& source, const xsd::Schema& target) const {
  return matcher_.Similarity(source, target,
                             PoolFor(source.NodeCount() * target.NodeCount()));
}

EngineMatchResult MatchEngine::MatchRequest(const xsd::Schema& source,
                                            const xsd::Schema& target,
                                            const EngineRequestOptions& options,
                                            ThreadPool* pool) const {
  QMATCH_SPAN(span, "engine.match");
  QMATCH_SPAN_ARG(span, "source_nodes", source.NodeCount());
  QMATCH_SPAN_ARG(span, "target_nodes", target.NodeCount());
  EngineMatchResult out;
  out.total_rows = source.NodeCount();
  const ExecControl control{options.deadline, options.cancel};
  const bool cached = options_.cache_capacity > 0;
  CacheKey key;
  if (cached) {
    key = MakeKey(source, target);
    MatchResult hit;
    if (CacheLookup(key, source, target, &hit)) {
      // A hit is instant and complete, so it is served even when the
      // envelope has already tripped — strictly better than a partial.
      out.result = std::move(hit);
      out.completed_rows = out.total_rows;
      CountRequestOutcome(out.status);
      return out;
    }
  }
  // A tripped envelope ends the request before admission and the table
  // allocation: neither polls it, and in a batch every job still to start
  // would pay for both after the deadline.
  if (const StopReason stop = control.Check(); stop != StopReason::kNone) {
    out.status = StopStatus(stop, "match");
    CountRequestOutcome(out.status);
    return out;
  }
  const size_t pairs = source.NodeCount() * target.NodeCount();
  const OverloadOptions& overload = options_.overload;

  // Admission: over-capacity requests queue (FIFO, up to the deadline) or
  // are shed with a typed kOverloaded before any matching work runs.
  AdmissionPermit permit;
  {
    Status admitted =
        admission_.Admit(std::max<uint64_t>(1, pairs), control, &permit);
    if (!admitted.ok()) {
      out.status = std::move(admitted);
      CountRequestOutcome(out.status);
      return out;
    }
  }

  // Degradation ladder: the pressure signal picks the rung.
  const double pressure = Pressure();
  QMATCH_GAUGE_SET("engine.pressure_permille",
                   static_cast<uint64_t>(pressure * 1000.0));
  MatchMode mode = MatchMode::kFull;
  if (pressure >= kLabelOnlyPressure) {
    mode = MatchMode::kLabelOnly;
    QMATCH_COUNTER_ADD("engine.degraded.label_only", 1);
  } else if (pressure >= kCappedDepthPressure) {
    mode = MatchMode::kCappedDepth;
    QMATCH_COUNTER_ADD("engine.degraded.capped_depth", 1);
  }

  // Memory budget: the pairwise table (the qom/category columns plus the
  // distinct-pair axis matrices) is this request's dominant allocation;
  // charge its exact size (request budget rolls up into the process one)
  // and reject with a typed kResourceExhausted instead of OOMing.
  MemoryBudget request_budget(overload.request_budget_bytes, &process_budget_);
  ScopedCharge table_charge(&request_budget);
  {
    Status charged = table_charge.Add(
        std::max<uint64_t>(
            1, match::SoaTable::Bytes(source.Flat(), target.Flat())),
        "pairwise QoM table");
    if (!charged.ok()) {
      out.status = std::move(charged);
      CountRequestOutcome(out.status);
      return out;
    }
  }

  TreeMatchOptions tree;
  tree.mode = mode;
  tree.children_depth_cap = kChildrenDepthCap;
  try {
    QMatch::Analysis analysis =
        matcher_.Analyze(source, target, pool, &control, tree);
    out.completed_rows = analysis.completed_rows();
    out.total_rows = analysis.total_rows();
    switch (analysis.stop_reason()) {
      case StopReason::kNone:
        out.result = analysis.TakeResult();
        // Only full-fidelity answers enter the cache: a degraded result
        // must never be served later as if it were the real one.
        if (cached && mode == MatchMode::kFull) CacheStore(key, out.result);
        break;
      case StopReason::kCancelled:
      case StopReason::kDeadlineExceeded:
        out.status = StopStatus(analysis.stop_reason(), "match");
        out.result = analysis.TakeResult();
        QMATCH_COUNTER_ADD("engine.partial_correspondences",
                           out.result.correspondences.size());
        break;
    }
  } catch (const std::exception& e) {
    // A throwing failpoint (or any other internal throw) still produces a
    // typed response — no request escapes the status contract.
    out.status = Status::Internal(std::string("match failed: ") + e.what());
    out.result = MatchResult{};
    out.completed_rows = 0;
  }
  CountRequestOutcome(out.status);
  return out;
}

std::vector<EngineMatchResult> MatchEngine::MatchAll(
    const std::vector<MatchJob>& jobs,
    const EngineRequestOptions& options) const {
  std::vector<EngineMatchResult> results(jobs.size());
  if (jobs.empty()) return results;
  if (jobs.size() == 1) {
    // A single job gets the row-parallel fill instead of job fan-out.
    results[0] = Match(*jobs[0].source, *jobs[0].target, options);
    return results;
  }
  // Fan jobs out across the pool; each job fills its own table
  // sequentially (the batch already saturates the workers, and one table
  // per thread keeps memory locality). Determinism: slot i is written by
  // exactly one task and holds the result of jobs[i] no matter which
  // worker ran it or in what order. The body never throws, so the fan-out
  // completes even when every job degrades.
  QMATCH_SPAN(span, "engine.match_all");
  QMATCH_SPAN_ARG(span, "jobs", jobs.size());
  QMATCH_OBS_ONLY(const uint64_t fanout_start_ns = obs::MonotonicNowNs();)
  pool_->ParallelFor(jobs.size(), [&](size_t i) {
    results[i] =
        MatchRequest(*jobs[i].source, *jobs[i].target, options, nullptr);
  });
  QMATCH_HISTOGRAM_OBSERVE("engine.batch_fanout_ns",
                           obs::MonotonicNowNs() - fanout_start_ns);
  QMATCH_COUNTER_ADD("engine.batch_jobs", jobs.size());
  return results;
}

double MatchEngine::Pressure() const {
  return std::max(admission_.Pressure(), process_budget_.Pressure());
}

MatchEngineCacheStats MatchEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  MatchEngineCacheStats stats = cache_stats_;
  stats.entries = cache_lru_.size();
  return stats;
}

}  // namespace qmatch::core
