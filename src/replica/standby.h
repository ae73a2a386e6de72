#ifndef QMATCH_REPLICA_STANDBY_H_
#define QMATCH_REPLICA_STANDBY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"
#include "core/engine.h"
#include "net/server.h"
#include "replica/wire.h"

namespace qmatch::replica {

struct StandbyOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;

  /// Per-frame read timeout. MUST exceed the primary's heartbeat cadence
  /// (ServerOptions::replica_heartbeat, default 200ms), or a healthy idle
  /// stream reads as dead; it also bounds how long Stop() waits for the
  /// replication thread to notice the flag.
  std::chrono::milliseconds read_timeout{1000};

  /// Reconnect backoff (same jittered exponential schedule as the
  /// resilient client, deterministic under the seed).
  std::chrono::milliseconds backoff_base{50};
  std::chrono::milliseconds backoff_cap{1000};
  uint64_t backoff_seed = 0;
};

struct StandbyStats {
  uint64_t applied_seq = 0;
  uint64_t head_seq = 0;
  uint64_t reconnects = 0;
  uint64_t snapshots = 0;
  uint64_t records_applied = 0;
  bool connected = false;
};

/// The warm-standby side of replication (DESIGN.md §15): a thread that
/// subscribes to the primary's stream and continuously applies it — cache
/// records into the local engine (which also journals them, so the
/// standby's own persist store stays promotable), schema registrations
/// into the local server. Both peers run the same build: nothing on the
/// stream negotiates a version.
///
/// Correctness rules, in order of appearance:
///   - resume: each (re)subscription asks from applied_seq + 1, so nothing
///     is skipped and nothing needs the primary to track subscriber state;
///   - gaps: a record batch that does not continue applied_seq + 1 exactly
///     forces a reconnect (the resubscribe then either replays from the
///     log or gets a snapshot anchor) — records are never applied out of
///     order;
///   - snapshots: applied wholesale; overlap with subsequent records is
///     harmless because every record type is an idempotent last-wins
///     upsert, the same contract journal-over-snapshot replay relies on;
///   - epoch change: a primary whose head is BEHIND what this standby
///     already applied is a younger primary (restart, failback). The
///     standby resets to 0 and re-anchors rather than serve a divergent
///     sequence space.
///
/// After every applied message the standby reports its position to the
/// server (SetReplicaStatus), which is what makes /readyz truthful.
///
/// Promote() stops replication and flips the server to primary — the
/// engine already holds the replicated state, so the first request after
/// promotion is warm.
class Standby {
 public:
  /// `engine` and `server` are borrowed and must outlive the standby.
  Standby(core::MatchEngine* engine, net::Server* server,
          StandbyOptions options);
  ~Standby();

  Standby(const Standby&) = delete;
  Standby& operator=(const Standby&) = delete;

  /// Starts the replication thread. Call once.
  Status Start();

  /// Stops and joins the replication thread. Idempotent.
  void Stop();

  /// Stops replication, claims the next fencing epoch (persisted to disk
  /// BEFORE the role flips — DESIGN.md §16) and promotes the server to
  /// primary. Idempotent. The caller decides WHEN (health checks, an
  /// operator, SIGUSR1); this only makes the flip safe and orderly.
  void Promote();

  StandbyStats stats() const;

 private:
  void Run();
  /// One connect + subscribe + read-until-error session. Returns true if
  /// at least one message was applied (resets the backoff).
  bool StreamOnce();
  bool ApplyRecords(const RecordsMsg& msg);
  bool ApplySnapshot(const SnapshotMsg& msg);
  bool ApplyOne(uint32_t type, const std::string& payload);

  core::MatchEngine* const engine_;
  net::Server* const server_;
  const StandbyOptions options_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> snapshots_{0};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<bool> connected_{false};
};

}  // namespace qmatch::replica

#endif  // QMATCH_REPLICA_STANDBY_H_
