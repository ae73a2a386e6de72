#include "obs/trace.h"

#include <atomic>

#include "common/string_util.h"

namespace qmatch::obs {

namespace {

uint32_t ThisThreadTraceId() {
  static std::atomic<uint32_t> next_id{1};
  thread_local const uint32_t id =
      next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

thread_local uint32_t t_span_depth = 0;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlives all users
  return *tracer;
}

Tracer::Tracer(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void Tracer::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_ % capacity_] = event;
  }
  ++next_;
  SpanStats& stats = stats_[event.name];
  ++stats.count;
  stats.total_ns += event.duration_ns;
  if (event.duration_ns > stats.max_ns) stats.max_ns = event.duration_ns;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) return ring_;
  // Ring is full: oldest event lives at the write cursor.
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  const size_t cursor = next_ % capacity_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(cursor + i) % capacity_]);
  }
  return out;
}

std::map<std::string, SpanStats> Tracer::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

uint64_t Tracer::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_;
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : events) {
    out += first ? "\n" : ",\n";
    first = false;
    // Complete ("X") events: ts/dur in fractional microseconds.
    out += StrFormat(
        " {\"name\": \"%s\", \"cat\": \"qmatch\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
        event.name, static_cast<double>(event.start_ns) / 1e3,
        static_cast<double>(event.duration_ns) / 1e3, event.thread_id);
    out += StrFormat(", \"args\": {\"depth\": %u", event.depth);
    for (size_t a = 0; a < 2; ++a) {
      if (event.arg_names[a] == nullptr) break;
      out += StrFormat(", \"%s\": %.17g", event.arg_names[a],
                       event.arg_values[a]);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::StatsJson() const {
  const std::map<std::string, SpanStats> stats = Stats();
  std::string out = "{";
  bool first = true;
  for (const auto& [name, s] : stats) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  \"%s\": {\"count\": %llu, \"total_ns\": %llu, \"max_ns\": %llu}",
        name.c_str(), static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.total_ns),
        static_cast<unsigned long long>(s.max_ns));
  }
  out += "\n}\n";
  return out;
}

Span::Span(const char* name, Tracer& tracer) : tracer_(tracer) {
  event_.name = name;
  event_.thread_id = ThisThreadTraceId();
  event_.depth = t_span_depth++;
  event_.start_ns = MonotonicNowNs();
}

Span::~Span() {
  event_.duration_ns = MonotonicNowNs() - event_.start_ns;
  --t_span_depth;
  tracer_.Record(event_);
}

void Span::Arg(const char* key, double value) {
  if (arg_count_ >= 2) return;
  event_.arg_names[arg_count_] = key;
  event_.arg_values[arg_count_] = value;
  ++arg_count_;
}

}  // namespace qmatch::obs
