#ifndef QMATCH_PERFBENCH_WORKLOADS_H_
#define QMATCH_PERFBENCH_WORKLOADS_H_

// The benchmark's three named workloads. Each one generates its inputs from
// the seed, submits them to qmatchd as XSD text, runs one operation at a
// time per connection (closed loop), checks every answer against an
// in-process core::QMatch reference, and in the traced run replays each
// operation's layer calls in-process.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"

namespace qmbench {

struct Env {
  uint64_t seed = 1;
  std::string data_dir;     ///< the repository's data/ directory
  std::string scratch_dir;  ///< where the traced run's scratch store lives
};

/// Work counts the traced replays observe, summed over traced operations.
struct ReplayCounts {
  double pairs = 0;        ///< n·m of every table filled
  double label_pairs = 0;  ///< distinct-label pairs scored
  double label_none = 0;   ///< of which scored kNone
  /// Cache hits replayed, and their Match time minus two fingerprints.
  double hits = 0;
  double rehydrate_ms = 0;
};

struct Verdict {
  /// (connection, op index) of every measured answer that was wrong.
  std::vector<std::pair<size_t, uint64_t>> wrong_ops;
  /// Setup-phase answers (priming) that were wrong.
  uint64_t wrong_setup = 0;
  std::string report;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t connections() const = 0;

  /// True when every measured request must hit the engine cache, false
  /// when every one must miss; checked against the daemon's counters.
  virtual bool all_hits() const = 0;

  /// Generates the seeded inputs and submits (and, where the workload
  /// needs it, primes) them over `links`. Every call lands in `tally`.
  virtual void Setup(std::vector<Link>& links, Tally* tally) = 0;

  /// False once the workload has no fresh operation `index` left.
  virtual bool HasOp(uint64_t index) const = 0;

  /// Runs operation `index` of connection `conn`. `*latency_ms` is the
  /// client-observed time of the operation's calls; the answer check that
  /// can run inline (warm answers against their priming answers) runs after
  /// the clock stops.
  virtual Outcome RunOp(size_t conn, uint64_t index, Link& link,
                        double* latency_ms, std::string* typed_code) = 0;

  /// Checks every recorded answer against the in-process reference.
  virtual Verdict Verify(qmatch::ThreadPool* pool) = 0;

  /// Traced run: builds the in-process mirror of the daemon's layers.
  virtual void PrepareReplay(const Env& env) = 0;

  /// Replays operation `index`'s layer calls in-process, one span per call
  /// tagged with `op_id`. Safe to call from every connection's thread.
  virtual void Replay(size_t conn, uint64_t index, uint64_t op_id,
                      uint32_t tid, SpanLog* log) = 0;

  virtual ReplayCounts replay_counts() const = 0;
};

/// "cold_protein", "warm_mixed" or "corpus_query"; null for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Env& env);

}  // namespace qmbench

#endif  // QMATCH_PERFBENCH_WORKLOADS_H_
