#ifndef QMATCH_OBS_TRACE_H_
#define QMATCH_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qmatch::obs {

/// Monotonic nanoseconds since an arbitrary process-local epoch.
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One completed span. `name` must be a string literal (spans are recorded
/// on the hot path; no allocation per event).
struct TraceEvent {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t thread_id = 0;
  uint32_t depth = 0;  // nesting depth on the recording thread (0 = root)
  /// Up to two numeric annotations, exported as Chrome trace args.
  const char* arg_names[2] = {nullptr, nullptr};
  double arg_values[2] = {0.0, 0.0};
};

/// Aggregate across all completed spans with one name — survives ring
/// overwrites, so rates stay correct even when raw events are evicted.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;
};

/// Process-wide span sink: a bounded ring buffer of raw TraceEvents (the
/// newest `capacity` spans; older ones are overwritten) plus per-name
/// aggregates that are never evicted. Recording takes one short mutex hold
/// — spans are coarse (whole parses, whole table fills, whole batches), so
/// the lock is uncontended in practice and trivially TSan-clean.
class Tracer {
 public:
  static Tracer& Global();

  explicit Tracer(size_t capacity = 65536);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(const TraceEvent& event);

  /// The retained raw events in recording order (oldest first).
  std::vector<TraceEvent> Events() const;

  /// Per-name aggregates over every span ever recorded.
  std::map<std::string, SpanStats> Stats() const;

  /// Total spans ever recorded (>= Events().size() once the ring wraps).
  uint64_t total_recorded() const;
  size_t capacity() const { return capacity_; }

  void Clear();

  /// Chrome trace_event JSON ({"traceEvents": [...]}): load via
  /// chrome://tracing or https://ui.perfetto.dev. Timestamps/durations are
  /// microseconds as the format requires.
  std::string ChromeTraceJson() const;

  /// JSON object {"<name>": {"count": ..., "total_ns": ..., "max_ns": ...}}
  /// of the per-name aggregates (valid JSON; obs_test parses it back).
  std::string StatsJson() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  uint64_t next_ = 0;  // total recorded; next_ % capacity_ = write slot
  std::map<std::string, SpanStats> stats_;
};

/// RAII scoped span: records [construction, destruction) into a Tracer.
/// Nesting is tracked per thread, so child spans carry depth = parent + 1
/// and render nested in chrome://tracing.
class Span {
 public:
  explicit Span(const char* name) : Span(name, Tracer::Global()) {}
  Span(const char* name, Tracer& tracer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric annotation (max 2; extras are dropped). `key` must
  /// be a string literal.
  void Arg(const char* key, double value);

 private:
  Tracer& tracer_;
  TraceEvent event_;
  size_t arg_count_ = 0;
};

}  // namespace qmatch::obs

#endif  // QMATCH_OBS_TRACE_H_
