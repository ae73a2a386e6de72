#ifndef QMATCH_NET_SERVER_H_
#define QMATCH_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "xsd/parser.h"

namespace qmatch::replica {
class ReplicationLog;
}  // namespace qmatch::replica

namespace qmatch::net {

/// Serving role of one qmatchd process (DESIGN.md §15).
///
///   kPrimary:  accepts all requests; mutations feed the replication log.
///   kStandby:  serves health/role/stats/metrics but answers engine work
///              with typed kUnavailable; state arrives via replication.
///   kDraining: SIGTERM received — no new connections, queued engine work
///              rejected typed, in-flight work finishing. Terminal.
///
/// Transitions: kStandby -> kPrimary (promote), kPrimary|kStandby ->
/// kDraining (drain), and kPrimary -> kStandby (self-demotion: a primary
/// that observes a higher fencing epoch fences itself, DESIGN.md §16).
/// kDraining is terminal — SetRole refuses to leave it, so a late promote
/// can never resurrect a draining server.
enum class Role : uint32_t {
  kPrimary = 1,
  kStandby = 2,
  kDraining = 3,
};

std::string_view RoleName(Role role);

/// Tuning knobs of the qmatchd server.
struct ServerOptions {
  /// Listen address; port 0 binds an ephemeral port (tests) — read the
  /// resolved one back via port().
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;

  /// Worker threads executing parse/match requests off the event loop
  /// (the loop itself never blocks on a match). Minimum 1.
  size_t request_threads = 2;

  /// Connections idle longer than this are closed by the timer wheel.
  /// Zero disables the idle timeout. Replication subscribers are exempt —
  /// they are push-mode and never write again after subscribing.
  std::chrono::milliseconds idle_timeout{60000};

  /// Deadline applied to requests that carry deadline_ms = 0. Zero =
  /// unbounded (the classic run-to-completion default).
  std::chrono::milliseconds default_deadline{0};

  /// Hard ceiling on any client-requested deadline; larger asks are
  /// clamped, so one client cannot park work on the engine forever.
  /// Zero = no ceiling.
  std::chrono::milliseconds max_deadline{30000};

  /// Accepted connections beyond this are closed immediately at accept.
  size_t max_connections = 256;

  /// Bounds applied to SubmitSchema XSD parses (input size, node count) —
  /// the same typed kResourceExhausted discipline as everywhere else.
  xsd::ParseOptions parse;

  /// Serving role at Start (promote later via SetRole).
  Role role = Role::kPrimary;

  /// Fencing-epoch floor at Start. The effective starting epoch is
  /// max(epoch, persisted epoch in epoch_dir); a higher epoch observed on
  /// the wire is adopted (and persisted) at runtime. Epoch 0 never exists
  /// on the wire from this server — the floor is clamped to 1.
  uint64_t epoch = 1;

  /// Directory holding the persisted fencing epoch (epoch.qme). Empty =
  /// epoch not persisted (tests, throwaway daemons) — promotions still
  /// bump the in-memory epoch but a restart forgets it.
  std::string epoch_dir;

  /// Peer to probe for a higher epoch on the replica heartbeat timer (a
  /// primary-side anti-split-brain probe: a kRole request whose response
  /// head carries the peer's epoch). Port 0 disables probing; also
  /// settable after Start via SetPeer (test fixtures learn ports late).
  std::string peer_host = "127.0.0.1";
  uint16_t peer_port = 0;

  /// Connect/read budget of one peer probe (it runs on a worker thread,
  /// never the loop).
  std::chrono::milliseconds peer_probe_timeout{100};

  /// Primary-side replication source (borrowed, must outlive the server;
  /// null = replication off). kReplicaSubscribe connections stream this
  /// log; a subscriber behind the log's base is anchored with a full
  /// engine-state + schema snapshot first.
  replica::ReplicationLog* replication_log = nullptr;

  /// Heartbeat cadence of the replication stream: an empty records frame
  /// carrying the head sequence, so an idle standby's lag reading stays
  /// truthful and dead links are noticed. Zero disables heartbeats.
  std::chrono::milliseconds replica_heartbeat{200};

  /// Standby readiness bound: /readyz (and kRole.ready) report ready while
  /// the replication link is up and head - applied <= this many records.
  uint64_t ready_lag_records = 64;

  /// EADDRINUSE bind retries with a short backoff — a drained-and-
  /// restarted daemon (or a failover pair racing a port) never dies on the
  /// previous owner's lingering socket.
  size_t bind_retries = 20;
  std::chrono::milliseconds bind_retry_backoff{50};

  /// Invoked after every successful schema registration with (name, xsd
  /// text) — the server-side replication hook mirroring the engine's
  /// ReplicationObserver. Runs on whatever thread registered the schema;
  /// must be thread-safe and must not call back into the server.
  std::function<void(const std::string&, const std::string&)> schema_observer;
};

/// Monotonic counters of one server's lifetime (also exported through the
/// obs registry as net.* metrics; these are the test-friendly exact reads).
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t requests = 0;       ///< decodable requests dispatched
  uint64_t bad_frames = 0;     ///< CRC/length/decode failures answered typed
  uint64_t http_metrics = 0;   ///< GET /metrics scrapes served
  uint64_t replica_subscribers = 0;  ///< kReplicaSubscribe accepted
  uint64_t self_demotions = 0;  ///< primary fenced itself on a higher epoch
  uint64_t stale_refusals = 0;  ///< typed kUnavailable{stale_epoch} answers
};

/// qmatchd — the network front door to one MatchEngine (DESIGN.md §14/§15).
///
/// One epoll event loop (own thread) accepts connections and speaks the
/// frame protocol; decoded requests execute on a small worker pool with
/// the request deadline wired into ExecControl, so the engine's admission
/// control, memory budgets and degradation ladder protect the daemon
/// exactly as they protect in-process callers: an overloaded engine sheds
/// with a typed kOverloaded *response frame* — the connection stays open.
///
/// A connection whose first bytes are "GET " is served as one-shot HTTP
/// over the same loop, then closed: /metrics (Prometheus scrape),
/// /healthz (alive — 200 whenever the process answers) and /readyz
/// (200 only when this node should receive traffic: a running primary, or
/// a standby caught up within ready_lag_records).
///
/// Failpoints on every socket path: net.accept, net.read, net.write,
/// net.frame — the chaos suite's handles.
class Server {
 public:
  /// `engine` is borrowed and must outlive the server.
  Server(core::MatchEngine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds (retrying EADDRINUSE per bind_retries), listens and starts the
  /// loop thread. Non-OK on bind failure.
  Status Start();

  /// Closes the listener and every connection, stops the loop and joins
  /// all threads. Idempotent; also run by the destructor.
  void Stop();

  /// Graceful drain (the SIGTERM path): closes the listener, demotes to
  /// kDraining (queued engine work answers typed kUnavailable, /readyz
  /// goes 503) and waits until every connection is idle — no executing
  /// request, no queued frame, no unflushed bytes — or the deadline
  /// expires. Returns OK when quiesced, kDeadlineExceeded otherwise.
  /// Either way the caller then flushes the persist journal and Stop()s.
  Status Drain(std::chrono::milliseconds deadline);

  bool running() const { return running_.load(std::memory_order_acquire); }

  Role role() const {
    return static_cast<Role>(role_.load(std::memory_order_acquire));
  }
  /// Thread-safe role flip — Promote() on a standby, demote on drain.
  /// kDraining is terminal: once draining, every further SetRole is
  /// refused (the qmatchd SIGTERM/SIGUSR1 race ends drained, not primary).
  void SetRole(Role role);

  /// This server's own fencing epoch (stamped into every response head).
  uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Highest epoch ever observed on the wire (>= epoch()).
  uint64_t epoch_seen() const {
    return epoch_seen_.load(std::memory_order_acquire);
  }
  /// True once this server fenced itself after observing a higher epoch:
  /// it refuses mutable work with kUnavailable{stale_epoch} and will not
  /// re-anchor a standby until it adopts the winning epoch.
  bool fenced() const {
    return fenced_by_.load(std::memory_order_acquire) != 0;
  }

  /// Adopts `epoch` as this server's own (no-op when not higher). Persists
  /// to epoch_dir BEFORE the in-memory epoch moves — the promotion
  /// ordering that makes fencing crash-safe. Clears a fence once the
  /// server has caught up to the winning epoch. Thread-safe.
  Status AdoptEpoch(uint64_t epoch);

  /// Records an epoch seen on the wire. A primary seeing a higher epoch
  /// fences itself: net.self_demotions ticks, the role flips to kStandby,
  /// and every subsequent mutable request is refused typed
  /// kUnavailable{stale_epoch} until AdoptEpoch catches up. Thread-safe.
  void ObserveEpoch(uint64_t epoch);

  /// (Re)points the heartbeat-timer peer probe — fixtures start both
  /// servers before either port is known. Thread-safe.
  void SetPeer(const std::string& host, uint16_t port);

  /// The /readyz verdict: should a load balancer send traffic here?
  bool Ready() const;

  /// Standby-side feed: the replication applier reports its position after
  /// every message so /readyz and kRole answer truthfully.
  void SetReplicaStatus(uint64_t applied_seq, uint64_t head_seq,
                        bool connected);

  /// Resolved listen port (after Start with port 0).
  uint16_t port() const { return port_; }

  /// Parses `xsd_text` and registers it under `name`, replacing any
  /// previous entry; returns the registered schema. The one registration
  /// path: SubmitSchema requests, qmatchd's --preload, the replication
  /// applier and test fixtures all come through here. Thread-safe.
  /// `replicated` suppresses the schema_observer (a standby must not echo
  /// the stream).
  Result<std::shared_ptr<const xsd::Schema>> RegisterSchema(
      const std::string& name, std::string_view xsd_text,
      bool replicated = false);

  size_t schema_count() const;

  /// (name, xsd text) of every registered schema — the replication
  /// snapshot anchor's schema half.
  std::vector<std::pair<std::string, std::string>> ExportSchemas() const;

  ServerStats stats() const;

 private:
  struct Connection;

  // --- loop-thread only ----------------------------------------------------
  void OnAccept();
  void OnConnectionEvent(uint64_t conn_id, uint32_t events);
  void ReadConnection(Connection* conn);
  void ProcessInput(Connection* conn);
  void ServeHttp(Connection* conn);
  void SendFrame(Connection* conn, std::string frame_bytes);
  void FlushConnection(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void ArmIdleTimer(Connection* conn);
  void UpdateEpollMask(Connection* conn);
  Connection* FindConnection(uint64_t conn_id);

  /// Starts queued frames in arrival order, one engine request in flight
  /// per connection (responses are written in request order).
  void MaybeDispatchNext(Connection* conn);

  /// Dispatches one decoded frame. Requests needing engine work hop to the
  /// worker pool; stats/metrics/health/role answer inline.
  void DispatchFrame(Connection* conn, Frame frame);

  /// Replication push path: ships the subscriber everything it is owed —
  /// a snapshot anchor when it is behind the log's base, then record
  /// batches up to the head.
  void PumpReplica(Connection* conn);
  void PumpAllReplicas();
  /// Recurring heartbeat: an empty records frame with the current head to
  /// every subscriber, plus the peer epoch probe when configured.
  void ArmReplicaHeartbeat();
  /// Severs every replication subscriber (partition injection, or fencing
  /// after a demotion — a stale primary must not re-anchor a standby).
  void CloseAllReplicas();
  /// Fires one kRole probe at the configured peer on a worker thread and
  /// feeds the answered epoch into ObserveEpoch.
  void ProbePeerEpoch();

  /// Builds a response head carrying this server's current epoch — every
  /// response (success or typed error) goes through here.
  ResponseHead MakeHead(const Status& status) const;

  // --- worker-pool side ----------------------------------------------------
  void ExecuteSubmitSchema(uint64_t conn_id, SubmitSchemaReq req);
  void ExecuteMatchPair(uint64_t conn_id, MatchPairReq req);
  void ExecuteMatchCorpus(uint64_t conn_id, MatchCorpusReq req);
  /// Counts the request outcome (exactly once per dispatched request, even
  /// when the connection died before the response could be written) and
  /// posts the encoded response back to the loop.
  void CompleteRequest(uint64_t conn_id, const Status& status,
                       std::string frame_bytes);

  /// Bumps net.requests plus exactly one per-outcome counter. Called once
  /// per request, on whichever thread decides the outcome.
  void CountOutcome(const Status& status);

  Deadline RequestDeadline(uint64_t deadline_ms) const;
  StatsResp BuildStats() const;
  RoleResp BuildRole() const;
  std::shared_ptr<const xsd::Schema> LookupSchema(
      const std::string& name) const;

  core::MatchEngine* const engine_;
  const ServerOptions options_;

  EventLoop loop_;
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};

  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::atomic<uint32_t> role_;

  /// Fencing-epoch state (DESIGN.md §16). epoch_ is this server's own
  /// epoch (what it stamps into heads); epoch_seen_ the highest ever
  /// observed; fenced_by_ the winning epoch that demoted us (0 = not
  /// fenced). epoch_mutex_ serializes adopt/observe so persist-then-store
  /// stays ordered.
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> epoch_seen_{1};
  std::atomic<uint64_t> fenced_by_{0};
  std::mutex epoch_mutex_;
  /// At most one peer probe in flight (heartbeats must not pile up probes
  /// behind a slow peer).
  std::atomic<bool> probe_inflight_{false};
  mutable std::mutex peer_mutex_;
  std::string peer_host_;
  uint16_t peer_port_ = 0;

  /// Standby-side replication position, fed by SetReplicaStatus; read by
  /// Ready()/BuildRole() on any thread.
  std::atomic<uint64_t> replica_applied_{0};
  std::atomic<uint64_t> replica_head_{0};
  std::atomic<bool> replica_connected_{false};

  /// Loop-thread only: live connections by id (ids, not fds, key the map
  /// so a stale completion can never hit a recycled fd).
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;
  TimerWheel::TimerId heartbeat_timer_ = 0;  // loop-thread only

  mutable std::mutex schemas_mutex_;
  /// Submitted schemas by name, with the XSD text they were parsed from
  /// (the replication snapshot needs the exact bytes so the standby's
  /// re-parse fingerprints agree). shared_ptr: a replace while a match is
  /// in flight keeps the old tree alive until the last request drops it.
  struct SchemaEntry {
    std::shared_ptr<const xsd::Schema> schema;
    std::string xsd_text;
  };
  std::map<std::string, SchemaEntry> schemas_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> http_metrics_{0};
  std::atomic<uint64_t> replica_subscribers_{0};
  std::atomic<uint64_t> self_demotions_{0};
  std::atomic<uint64_t> stale_refusals_{0};
};

}  // namespace qmatch::net

#endif  // QMATCH_NET_SERVER_H_
