#ifndef QMATCH_PERFBENCH_HARNESS_H_
#define QMATCH_PERFBENCH_HARNESS_H_

// Process, measurement and reporting plumbing of the served-path benchmark:
// the qmatchd child process, one accounted client connection, the
// benchmark's own span log, and the small statistics it reports.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/client.h"

namespace qmbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Deterministic 64-bit mix of (seed, stream, index): every generated input
/// draws its own seed from here, so one --seed fixes all of them.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// Linear-interpolated quantile of `values` (sorted inside), q in [0, 1].
double Quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// The daemon under test
// ---------------------------------------------------------------------------

/// One qmatchd child process with the benchmark's fixed serving flags:
/// --port 0 --workers 2 --threads 2 --cache 128 --persist <dir>, admission
/// left at its default (off). Its stdout is piped back so the benchmark
/// learns the port and, after the SIGTERM drain, the served-request count.
class Daemon {
 public:
  static qmatch::Result<std::unique_ptr<Daemon>> Launch(
      const std::string& binary, const std::string& persist_dir);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }

  /// utime + stime of every daemon thread so far, from /proc/<pid>/stat.
  double CpuMs() const;
  /// VmHWM from /proc/<pid>/status, in MiB.
  double PeakRssMb() const;

  /// SIGTERM drain: waits for exit and returns the daemon's own
  /// "served N request(s)" count. Non-OK when it does not exit cleanly.
  qmatch::Result<uint64_t> Drain();

 private:
  Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  /// Reads daemon stdout until `needle` appears or EOF/timeout.
  bool ReadUntil(const std::string& needle, int timeout_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string out_;  ///< everything the daemon printed so far
};

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

enum class Outcome { kOk, kTyped, kTransport, kWrong };

/// Sent / succeeded / failed counts of one phase, split by cause.
struct Tally {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t transport = 0;
  uint64_t wrong = 0;
  std::map<std::string, uint64_t> typed;  ///< by StatusCode name

  void Add(Outcome outcome, const std::string& typed_code = "");
  void Merge(const Tally& other);
  uint64_t failed() const;
  std::string ToString() const;
};

/// One client connection. Every call is counted, so the sum over all links
/// must equal the daemon's served-request count at drain time.
class Link {
 public:
  static qmatch::Result<Link> Connect(uint16_t port);

  qmatch::Result<qmatch::net::SubmitSchemaResp> SubmitSchema(
      const std::string& name, const std::string& xsd);
  qmatch::Result<qmatch::net::MatchPairResp> MatchPair(
      const std::string& source, const std::string& target);
  qmatch::Result<qmatch::net::MatchCorpusResp> MatchCorpus(
      const std::string& query);
  qmatch::Result<qmatch::net::StatsResp> GetStats();
  /// Prometheus text of the daemon's registry, parsed to name -> value
  /// (histograms contribute <name>_sum and <name>_count).
  qmatch::Result<std::map<std::string, double>> Scrape();

  uint64_t calls() const { return calls_; }

 private:
  qmatch::net::Client client_;
  uint64_t calls_ = 0;
};

/// Classifies a call result: transport error, typed non-OK head, or OK.
template <typename Resp>
Outcome Classify(const qmatch::Result<Resp>& r, std::string* typed_code) {
  if (!r.ok()) return Outcome::kTransport;
  if (!r->head.ok()) {
    *typed_code = std::string(qmatch::StatusCodeToString(r->head.status_code()));
    return Outcome::kTyped;
  }
  return Outcome::kOk;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span log of the traced run: one span per client operation and
/// one child span per replayed layer call, all tagged with the operation's
/// id. Written at exit as Chrome trace_event JSON, the shape obs::Tracer
/// emits, so the same viewer opens both.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t op_id = 0;
    uint32_t tid = 0;
  };

  void Add(std::string name, uint64_t start_ns, uint64_t end_ns,
           uint64_t op_id, uint32_t tid);

  /// Times `fn()` as one span and returns its duration in ms.
  template <typename F>
  double Time(const char* name, uint64_t op_id, uint32_t tid, F&& fn) {
    const uint64_t start = NowNs();
    fn();
    const uint64_t end = NowNs();
    Add(name, start, end, op_id, tid);
    return static_cast<double>(end - start) / 1e6;
  }

  std::vector<Span> spans() const;
  std::string ChromeTraceJson() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace qmbench

#endif  // QMATCH_PERFBENCH_HARNESS_H_
