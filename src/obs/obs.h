#ifndef QMATCH_OBS_OBS_H_
#define QMATCH_OBS_OBS_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// Compile-time kill switch for every instrumentation hook in the library.
/// The build defines QMATCH_OBS_ENABLED=0 (cmake -DQMATCH_OBS=OFF) to
/// macro-noop all hooks: no registry lookups, no clock reads, no atomic
/// traffic — the instrumented call sites compile to nothing. The obs
/// classes themselves always compile (direct users keep working; only the
/// woven-in hooks disappear).
#ifndef QMATCH_OBS_ENABLED
#define QMATCH_OBS_ENABLED 1
#endif

#if QMATCH_OBS_ENABLED

/// Guards a statement (or declaration) that exists only for observability.
#define QMATCH_OBS_ONLY(...) __VA_ARGS__

/// Bumps the named process-wide counter. The registry lookup happens once
/// (function-local static); the steady state is one relaxed fetch_add on a
/// per-thread shard.
#define QMATCH_COUNTER_ADD(metric_name, delta)                        \
  do {                                                                \
    static ::qmatch::obs::Counter& _qm_obs_counter =                  \
        ::qmatch::obs::Registry::Global().GetCounter(metric_name);    \
    _qm_obs_counter.Add(static_cast<uint64_t>(delta));                \
  } while (0)

#define QMATCH_GAUGE_ADD(metric_name, delta)                          \
  do {                                                                \
    static ::qmatch::obs::Gauge& _qm_obs_gauge =                      \
        ::qmatch::obs::Registry::Global().GetGauge(metric_name);      \
    _qm_obs_gauge.Add(static_cast<int64_t>(delta));                   \
  } while (0)

#define QMATCH_GAUGE_SET(metric_name, value)                          \
  do {                                                                \
    static ::qmatch::obs::Gauge& _qm_obs_gauge =                      \
        ::qmatch::obs::Registry::Global().GetGauge(metric_name);      \
    _qm_obs_gauge.Set(static_cast<int64_t>(value));                   \
  } while (0)

/// Records one observation into the named histogram (default latency-ns
/// bucket layout).
#define QMATCH_HISTOGRAM_OBSERVE(metric_name, value)                  \
  do {                                                                \
    static ::qmatch::obs::Histogram& _qm_obs_histogram =              \
        ::qmatch::obs::Registry::Global().GetHistogram(metric_name);  \
    _qm_obs_histogram.Observe(static_cast<double>(value));            \
  } while (0)

/// Opens an RAII span named `var` covering the rest of the scope.
/// `span_name` must be a string literal.
#define QMATCH_SPAN(var, span_name) ::qmatch::obs::Span var(span_name)

/// Attaches a numeric annotation to a QMATCH_SPAN-declared span.
#define QMATCH_SPAN_ARG(var, key, value) \
  (var).Arg(key, static_cast<double>(value))

#else  // !QMATCH_OBS_ENABLED

#define QMATCH_OBS_ONLY(...)
#define QMATCH_COUNTER_ADD(metric_name, delta) \
  do {                                         \
  } while (0)
#define QMATCH_GAUGE_ADD(metric_name, delta) \
  do {                                       \
  } while (0)
#define QMATCH_GAUGE_SET(metric_name, value) \
  do {                                       \
  } while (0)
#define QMATCH_HISTOGRAM_OBSERVE(metric_name, value) \
  do {                                               \
  } while (0)
#define QMATCH_SPAN(var, span_name) \
  do {                              \
  } while (0)
#define QMATCH_SPAN_ARG(var, key, value) \
  do {                                   \
  } while (0)

#endif  // QMATCH_OBS_ENABLED

namespace qmatch::obs {

/// One JSON document combining the metric registry and the per-span-name
/// aggregates: {"obs_enabled": ..., "metrics": {...}, "spans": {...}}.
/// This is the payload `--metrics-out` writes; obs_test parses it back.
std::string CombinedJson();

/// Command-line plumbing shared by bench_scaling / schema_search /
/// corpus_explorer: recognises
///   --metrics-out=<file>   write CombinedJson() at exit
///   --trace-out=<file>     write Tracer::ChromeTraceJson() at exit
struct CliSink {
  std::string metrics_path;
  std::string trace_path;

  /// Returns true (and records the path) when `arg` is one of the
  /// observability flags; callers drop consumed args from argv.
  bool TryParse(std::string_view arg);

  /// Writes whichever files were requested; returns the first error.
  Status Write() const;
};

}  // namespace qmatch::obs

#endif  // QMATCH_OBS_OBS_H_
