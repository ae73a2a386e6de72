#ifndef QMATCH_NET_RESILIENT_CLIENT_H_
#define QMATCH_NET_RESILIENT_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/client.h"
#include "net/frame.h"

namespace qmatch::net {

struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Tuning knobs of the failover-aware client (DESIGN.md §15).
struct ResilientClientOptions {
  /// Walked in order on failure, sticky on success: the client stays on
  /// the endpoint that last answered until it stops answering.
  std::vector<Endpoint> endpoints;

  /// Per-attempt connect budget (further clamped by the call deadline).
  std::chrono::milliseconds connect_timeout{1000};

  /// Per-attempt socket I/O budget (further clamped by the call deadline).
  std::chrono::milliseconds io_timeout{2000};

  /// Total wall-clock bound of one logical call across every retry,
  /// backoff sleep and failover. 0 = unbounded (the per-attempt timeouts
  /// still apply).
  std::chrono::milliseconds call_deadline{10000};

  /// Extra attempts after the first (so retry_budget = 4 means at most 5
  /// attempts touch a socket).
  size_t retry_budget = 4;

  /// Jittered exponential backoff between attempts: attempt n sleeps
  /// uniformly in [d/2, d] where d = min(base * 2^n, cap). Deterministic
  /// under a fixed seed (RetryBackoff below is the exact function).
  std::chrono::milliseconds backoff_base{10};
  std::chrono::milliseconds backoff_cap{500};
  uint64_t backoff_seed = 0;
};

/// The backoff schedule, exposed as a pure function so tests can assert
/// determinism: same (base, cap, attempt, seed) -> same sleep, always in
/// [d/2, d]. base <= 0 disables sleeping entirely.
std::chrono::nanoseconds RetryBackoff(std::chrono::milliseconds base,
                                      std::chrono::milliseconds cap,
                                      uint64_t attempt, uint64_t seed);

struct ResilientClientStats {
  uint64_t retries = 0;     ///< attempts after the first, across all calls
  uint64_t reconnects = 0;  ///< sockets (re)established
  uint64_t failovers = 0;   ///< endpoint advances after a failure
  /// Endpoints passed over during failover because their last answer
  /// carried an epoch below the highest seen (split-brain fencing).
  uint64_t stale_endpoint_skips = 0;
};

/// A qmatchd client that survives its server (DESIGN.md §15): automatic
/// reconnect with seeded jittered exponential backoff, a bounded retry
/// budget, and ordered multi-endpoint failover (sticky until failure).
///
/// Retry rules — the part that makes failover SAFE, not just persistent:
///   - A connect failure happened before any bytes were sent: every
///     request type may retry.
///   - A typed kUnavailable response is the server refusing BEFORE any
///     work ran (standby, draining): every request type may retry against
///     the next endpoint.
///   - A transport error after the request bytes were sent is AMBIGUOUS —
///     the server may have executed the request. Only idempotent requests
///     (MatchPair, MatchCorpus, GetStats, GetMetrics, Health, GetRole)
///     retry past this point; SubmitSchema surfaces the transport error to
///     the caller, which owns the resubmit decision.
///   - Budget exhaustion returns the LAST error observed (the typed
///     kUnavailable, the connect errno, ...), never a generic failure.
///
/// Epoch awareness (DESIGN.md §16): every response head carries the
/// answering server's fencing epoch, and a fenced server's
/// kUnavailable{stale_epoch} refusal names the winning epoch. The client
/// tracks both, prefers the endpoint known to hold the highest epoch on
/// failover, and never fails BACK to an endpoint whose last answer was
/// stale — the split-brain half of the failover contract.
///
/// Not thread-safe: one instance per calling thread, like net::Client.
class ResilientClient {
 public:
  explicit ResilientClient(ResilientClientOptions options);

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;
  ResilientClient(ResilientClient&&) = default;
  ResilientClient& operator=(ResilientClient&&) = default;

  Result<SubmitSchemaResp> SubmitSchema(const std::string& name,
                                        std::string_view xsd_text);
  Result<MatchPairResp> MatchPair(const std::string& source,
                                  const std::string& target,
                                  uint64_t deadline_ms = 0);
  Result<MatchCorpusResp> MatchCorpus(const std::string& query,
                                      uint64_t deadline_ms = 0);
  Result<StatsResp> GetStats();
  Result<MetricsResp> GetMetrics();
  Result<HealthResp> Health();
  Result<RoleResp> GetRole();

  /// Index into options().endpoints the client is currently sticky on.
  size_t current_endpoint() const { return endpoint_index_; }

  /// Highest fencing epoch seen across every response head and every
  /// winner_epoch named by a stale_epoch refusal. 0 until a server answers.
  uint64_t highest_epoch() const { return max_epoch_; }
  /// Last epoch the given endpoint answered with (0 = never answered).
  uint64_t endpoint_epoch(size_t index) const {
    return index < endpoint_epochs_.size() ? endpoint_epochs_[index] : 0;
  }
  bool connected() const { return client_.connected(); }
  const ResilientClientOptions& options() const { return options_; }
  ResilientClientStats stats() const { return stats_; }

  void Close() { client_.Close(); }

 private:
  /// `idempotent` = false stops at an ambiguous send (the request may
  /// have landed); a typed kUnavailable refusal fails over either way.
  template <class Req>
  Result<typename Req::Response> CallRetry(const Req& req,
                                           bool idempotent = true);

  /// Advances the sticky endpoint after a failure, skipping endpoints
  /// known to be at a stale epoch and preferring the highest-epoch one.
  void Failover();

  /// Records the epoch an endpoint answered with (head.epoch) and raises
  /// the high-water mark; also mines a stale_epoch refusal's message for
  /// the winning epoch it names.
  void NoteEpoch(size_t endpoint, const ResponseHead& head);

  ResilientClientOptions options_;
  Client client_;
  size_t endpoint_index_ = 0;
  uint64_t attempt_counter_ = 0;  ///< global: diversifies backoff jitter
  ResilientClientStats stats_;
  std::vector<uint64_t> endpoint_epochs_;
  uint64_t max_epoch_ = 0;
};

}  // namespace qmatch::net

#endif  // QMATCH_NET_RESILIENT_CLIENT_H_
