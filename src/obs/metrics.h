#ifndef QMATCH_OBS_METRICS_H_
#define QMATCH_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qmatch::obs {

/// Number of per-thread shards backing every Counter/Histogram. A power of
/// two so the shard pick is a mask, sized so that the handful of engine
/// threads rarely collide on a cache line.
inline constexpr size_t kMetricShards = 16;

/// Stable small integer id of the calling thread, used to pick a shard.
/// Assigned on first use from a process-wide sequence, so the first
/// kMetricShards threads get private shards.
size_t ThisThreadShard();

namespace internal {
/// One cache-line-padded atomic cell (the per-thread shard slot).
struct alignas(64) PaddedU64 {
  std::atomic<uint64_t> value{0};
};
struct alignas(64) PaddedF64 {
  std::atomic<double> value{0.0};
};
}  // namespace internal

/// Monotonically increasing event count. `Add` is lock-free and wait-free
/// on the fast path: a relaxed fetch_add on the calling thread's shard;
/// shards are merged on scrape (`Value`). Safe to call from any thread.
class Counter {
 public:
  explicit Counter(std::string name, std::string help = "")
      : name_(std::move(name)), help_(std::move(help)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta = 1) noexcept {
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  /// Merged total across shards. A racing Add may or may not be included —
  /// the usual scrape semantics.
  uint64_t Value() const noexcept {
    uint64_t total = 0;
    for (const internal::PaddedU64& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() noexcept {
    for (internal::PaddedU64& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::array<internal::PaddedU64, kMetricShards> shards_;
};

/// A value that can go up and down (queue depth, live entries). Single
/// atomic — gauges are updated orders of magnitude less often than the
/// counters on the match hot path. Tracks the high-water mark as well.
class Gauge {
 public:
  explicit Gauge(std::string name, std::string help = "")
      : name_(std::move(name)), help_(std::move(help)) {}

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
    UpdateMax(value);
  }

  void Add(int64_t delta = 1) noexcept {
    const int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) +
                        delta;
    if (delta > 0) UpdateMax(now);
  }

  void Sub(int64_t delta = 1) noexcept { Add(-delta); }

  int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  /// Highest value ever observed by Set/Add (never decreases).
  int64_t Max() const noexcept { return max_.load(std::memory_order_relaxed); }

  void Reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  void UpdateMax(int64_t candidate) noexcept {
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::string name_;
  std::string help_;
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Distribution with fixed upper-bound buckets. `Observe` increments the
/// first bucket whose bound is >= the value (or the overflow cell) on the
/// calling thread's shard; count/sum/buckets are merged on scrape.
///
/// Bucket boundaries are fixed at construction and never change — the
/// exporter output for a given histogram is structurally stable across the
/// process lifetime, which is what lets scrapes be diffed.
class Histogram {
 public:
  /// `bounds` must be strictly increasing; an implicit +Inf bucket is
  /// appended (the overflow cell).
  Histogram(std::string name, std::vector<double> bounds,
            std::string help = "");

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// `count` exponentially spaced bounds: start, start*factor, ... —
  /// the default shape for latency-in-nanoseconds histograms.
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t count);
  /// The default latency scale: 1us .. ~17s in x4 steps (13 buckets).
  static std::vector<double> LatencyBoundsNs();

  void Observe(double value) noexcept;

  /// Merged snapshot of one scrape.
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;          // upper bounds, ascending
    std::vector<uint64_t> bucket_counts; // bounds.size() + 1 (last = +Inf)
  };
  Snapshot Scrape() const;

  void Reset() noexcept;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<uint64_t>> buckets;  // bounds.size() + 1
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::string name_;
  std::string help_;
  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Process-wide metric registry. `Get*` returns a stable reference that
/// lives as long as the process — call sites cache it in a function-local
/// static so the hot path never touches the registry lock:
///
/// ```
///   static obs::Counter& hits =
///       obs::Registry::Global().GetCounter("engine.cache.hits");
///   hits.Add();
/// ```
///
/// `ResetAll` zeroes values but never destroys metric objects, so cached
/// references stay valid (tests lean on this).
class Registry {
 public:
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(std::string_view name, std::string_view help = "");
  Gauge& GetGauge(std::string_view name, std::string_view help = "");
  /// Empty `bounds` means Histogram::LatencyBoundsNs(). If the histogram
  /// already exists, `bounds` is ignored (boundaries are fixed at birth).
  Histogram& GetHistogram(std::string_view name,
                          std::vector<double> bounds = {},
                          std::string_view help = "");

  void ResetAll();

  /// Prometheus text exposition format (counters, gauges + _max, histogram
  /// _bucket/_sum/_count series), names sanitised to [a-zA-Z0-9_:].
  std::string PrometheusText() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  /// Valid JSON: obs_test parses it back with tests/support/json.h.
  std::string JsonText() const;

  /// Sorted snapshot accessors for custom exporters.
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace qmatch::obs

#endif  // QMATCH_OBS_METRICS_H_
