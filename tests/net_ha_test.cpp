// High-availability serving (DESIGN.md §15), tier-1: role gating, the
// typed kHealth/kRole frames, the HTTP /healthz and /readyz probes, the
// primary -> standby replication stream (snapshot anchor + record
// catch-up), warm promotion, graceful drain with durable state, and the
// EADDRINUSE bind retry that makes restart-into-the-same-port safe.
//
// The chaos half of the same contract — seeded primary kills under
// ASan/TSan — lives in net_failover_test.cpp.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/obs.h"
#include "replica/log.h"
#include "replica/primary.h"
#include "replica/standby.h"
#include "test_util.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

namespace qmatch::net {
namespace {

using std::chrono::milliseconds;

#if QMATCH_OBS_ENABLED  // the counter assertions are obs-only
uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}
#endif

/// One-shot HTTP GET against the server's port: sends the request line and
/// reads to EOF (the server closes after answering). Returns the raw
/// response text, empty on connect failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Spins until `pred` holds or the scaled deadline passes.
template <typename Pred>
bool WaitFor(Pred pred, milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + test::Scaled(deadline);
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return pred();
}

/// An HA pair wired the way qmatchd wires one: a primary whose engine and
/// schema registry feed a replication log, and a standby whose applier
/// feeds its own engine and server.
class HaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetAll();
    const auto& corpus = datagen::Corpus();
    for (size_t i = 0; i < 3; ++i) {
      names_.push_back(corpus[i].name);
      xsds_.push_back(xsd::ToXsd(corpus[i].make()));
    }
  }

  void StartPrimary() {
    log_ = std::make_unique<replica::ReplicationLog>(256);
    engine_ = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    ServerOptions options;
    options.replica_heartbeat = milliseconds(50);
    replica::AttachPrimary(engine_.get(), &options, log_.get());
    primary_ = std::make_unique<Server>(engine_.get(), options);
    ASSERT_TRUE(primary_->Start().ok());
  }

  void StartStandby() {
    standby_engine_ =
        std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    ServerOptions options;
    options.role = Role::kStandby;
    options.ready_lag_records = 4;
    standby_server_ =
        std::make_unique<Server>(standby_engine_.get(), options);
    ASSERT_TRUE(standby_server_->Start().ok());
    replica::StandbyOptions stream_options;
    stream_options.primary_port = primary_->port();
    stream_options.read_timeout = test::Scaled(milliseconds(1000));
    stream_options.backoff_base = milliseconds(10);
    stream_options.backoff_cap = milliseconds(100);
    stream_ = std::make_unique<replica::Standby>(
        standby_engine_.get(), standby_server_.get(), stream_options);
    ASSERT_TRUE(stream_->Start().ok());
  }

  void TearDown() override {
    if (stream_) stream_->Stop();
    if (standby_server_) standby_server_->Stop();
    if (primary_) primary_->Stop();
  }

  Result<Client> ConnectTo(const Server& server) {
    return Client::Connect("127.0.0.1", server.port(),
                           test::Scaled(milliseconds(2000)));
  }

  /// Waits until the standby has heard the primary's current head and
  /// reports ready.
  bool AwaitCaughtUp() {
    return WaitFor(
        [this] {
          const replica::StandbyStats s = stream_->stats();
          return s.connected && s.applied_seq >= log_->head_seq() &&
                 standby_server_->Ready();
        },
        milliseconds(5000));
  }

  std::vector<std::string> names_;
  std::vector<std::string> xsds_;

  std::unique_ptr<replica::ReplicationLog> log_;
  std::unique_ptr<core::MatchEngine> engine_;
  std::unique_ptr<Server> primary_;

  std::unique_ptr<core::MatchEngine> standby_engine_;
  std::unique_ptr<Server> standby_server_;
  std::unique_ptr<replica::Standby> stream_;
};

// --- role gating -----------------------------------------------------------

TEST_F(HaTest, StandbyRefusesEngineWorkWithTypedUnavailable) {
  core::MatchEngine engine{core::MatchEngineOptions{}};
  ServerOptions options;
  options.role = Role::kStandby;
  Server standby(&engine, options);
  ASSERT_TRUE(standby.Start().ok());
  ASSERT_TRUE(standby.RegisterSchema(names_[0], xsds_[0], true).ok());
  ASSERT_TRUE(standby.RegisterSchema(names_[1], xsds_[1], true).ok());

  Result<Client> client = ConnectTo(standby);
  ASSERT_TRUE(client.ok());

  // Engine work is refused BEFORE any execution, with the typed verdict.
  Result<MatchPairResp> pair = client->MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->head.status_code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(pair->head.message, "not primary"))
      << pair->head.message;
  Result<SubmitSchemaResp> submit = client->SubmitSchema("extra", xsds_[2]);
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit->head.status_code(), StatusCode::kUnavailable);
  Result<MatchCorpusResp> corpus = client->MatchCorpus(names_[0], 5000);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->head.status_code(), StatusCode::kUnavailable);

  // Liveness and introspection still answer: a standby is alive, just not
  // taking traffic.
  Result<HealthResp> health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->head.ok());
  EXPECT_EQ(health->role, static_cast<uint32_t>(Role::kStandby));
  Result<StatsResp> stats = client->GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->head.ok());

  // The refusals are part of the exactly-once ledger (obs counters: an
  // obs-off build compiles them out).
#if QMATCH_OBS_ENABLED
  EXPECT_EQ(CounterValue("net.requests_unavailable"), 3u);
  EXPECT_EQ(CounterValue("net.requests"),
            CounterValue("net.requests_ok") +
                CounterValue("net.requests_error") +
                CounterValue("net.requests_overloaded") +
                CounterValue("net.requests_deadline_exceeded") +
                CounterValue("net.requests_resource_exhausted") +
                CounterValue("net.requests_cancelled") +
                CounterValue("net.requests_unavailable"));
#endif
  standby.Stop();
}

TEST_F(HaTest, RoleFrameReportsReadinessTruthfully) {
  StartPrimary();
  Result<Client> client = ConnectTo(*primary_);
  ASSERT_TRUE(client.ok());
  Result<RoleResp> role = client->GetRole();
  ASSERT_TRUE(role.ok()) << role.status().ToString();
  ASSERT_TRUE(role->head.ok());
  EXPECT_EQ(role->role, static_cast<uint32_t>(Role::kPrimary));
  EXPECT_EQ(role->ready, 1u);
  EXPECT_EQ(role->lag_records, 0u);

  // A standby that has never heard from its primary must NOT be ready:
  // it cannot know its lag yet.
  core::MatchEngine engine{core::MatchEngineOptions{}};
  ServerOptions options;
  options.role = Role::kStandby;
  Server standby(&engine, options);
  ASSERT_TRUE(standby.Start().ok());
  Result<Client> sclient = ConnectTo(standby);
  ASSERT_TRUE(sclient.ok());
  Result<RoleResp> srole = sclient->GetRole();
  ASSERT_TRUE(srole.ok());
  EXPECT_EQ(srole->role, static_cast<uint32_t>(Role::kStandby));
  EXPECT_EQ(srole->ready, 0u);
  standby.Stop();
}

// --- HTTP probes -----------------------------------------------------------

TEST_F(HaTest, HttpProbesAnswerHealthzReadyzMetricsAnd404) {
  StartPrimary();
  const std::string healthz = HttpGet(primary_->port(), "/healthz");
  EXPECT_TRUE(Contains(healthz, "200")) << healthz;
  EXPECT_TRUE(Contains(healthz, "ok role=primary")) << healthz;

  const std::string readyz = HttpGet(primary_->port(), "/readyz");
  EXPECT_TRUE(Contains(readyz, "200")) << readyz;
  EXPECT_TRUE(Contains(readyz, "ready role=primary")) << readyz;

  const std::string metrics = HttpGet(primary_->port(), "/metrics");
  EXPECT_TRUE(Contains(metrics, "200")) << metrics.substr(0, 128);
  EXPECT_GE(primary_->stats().http_metrics, 1u);

  const std::string missing = HttpGet(primary_->port(), "/nope");
  EXPECT_TRUE(Contains(missing, "404")) << missing;

  // A standby with no link yet: alive but not ready.
  core::MatchEngine engine{core::MatchEngineOptions{}};
  ServerOptions options;
  options.role = Role::kStandby;
  Server standby(&engine, options);
  ASSERT_TRUE(standby.Start().ok());
  const std::string s_healthz = HttpGet(standby.port(), "/healthz");
  EXPECT_TRUE(Contains(s_healthz, "200")) << s_healthz;
  EXPECT_TRUE(Contains(s_healthz, "ok role=standby")) << s_healthz;
  const std::string s_readyz = HttpGet(standby.port(), "/readyz");
  EXPECT_TRUE(Contains(s_readyz, "503")) << s_readyz;
  EXPECT_TRUE(Contains(s_readyz, "unready role=standby")) << s_readyz;
  standby.Stop();
}

// --- replication end to end ------------------------------------------------

TEST_F(HaTest, ReplicationAnchorsCatchesUpAndServesWarmAfterPromote) {
  StartPrimary();
  // Work that predates the standby: reaches it only via a snapshot anchor
  // (the log's genesis rule makes skipping it impossible).
  ASSERT_TRUE(primary_->RegisterSchema(names_[0], xsds_[0]).ok());
  ASSERT_TRUE(primary_->RegisterSchema(names_[1], xsds_[1]).ok());
  Result<Client> pclient = ConnectTo(*primary_);
  ASSERT_TRUE(pclient.ok());
  Result<MatchPairResp> before = pclient->MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->head.ok()) << before->head.message;

  StartStandby();
  ASSERT_TRUE(AwaitCaughtUp()) << "standby never caught up: applied="
                               << stream_->stats().applied_seq << " head="
                               << log_->head_seq();
  EXPECT_GE(stream_->stats().snapshots, 1u)
      << "pre-subscribe state must arrive via a snapshot anchor";
  EXPECT_EQ(standby_server_->schema_count(), 2u);

  // Work done while the standby is live streams as records.
  ASSERT_TRUE(primary_->RegisterSchema(names_[2], xsds_[2]).ok());
  Result<MatchPairResp> live = pclient->MatchPair(names_[1], names_[2], 5000);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->head.ok());
  ASSERT_TRUE(AwaitCaughtUp());
  EXPECT_GE(stream_->stats().records_applied, 1u);
  EXPECT_EQ(standby_server_->schema_count(), 3u);

  // /readyz is truthful on a caught-up standby...
  const std::string readyz = HttpGet(standby_server_->port(), "/readyz");
  EXPECT_TRUE(Contains(readyz, "200")) << readyz;
  // ...but engine work is still refused until promotion.
  Result<Client> sclient = ConnectTo(*standby_server_);
  ASSERT_TRUE(sclient.ok());
  Result<MatchPairResp> refused = sclient->MatchPair(names_[0], names_[1], 0);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->head.status_code(), StatusCode::kUnavailable);

  // Promote. The first request must be WARM: both matches were replicated
  // into the standby's cache, so they hit without recomputation — and the
  // answers are bit-identical to what the primary acknowledged.
  stream_->Promote();
  EXPECT_EQ(standby_server_->role(), Role::kPrimary);
  EXPECT_TRUE(standby_server_->Ready());
  const size_t hits_before = standby_engine_->cache_stats().hits;
  Result<MatchPairResp> after = sclient->MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after->head.ok()) << after->head.message;
  EXPECT_GT(standby_engine_->cache_stats().hits, hits_before)
      << "promoted standby answered cold: the replicated cache was not hit";
  EXPECT_EQ(std::bit_cast<uint64_t>(after->schema_qom),
            std::bit_cast<uint64_t>(before->schema_qom));
  ASSERT_EQ(after->correspondences.size(), before->correspondences.size());
  for (size_t i = 0; i < after->correspondences.size(); ++i) {
    EXPECT_EQ(after->correspondences[i], before->correspondences[i]);
  }
}

TEST_F(HaTest, StandbySurvivesAPrimaryRestartViaEpochReset) {
  StartPrimary();
  ASSERT_TRUE(primary_->RegisterSchema(names_[0], xsds_[0]).ok());
  ASSERT_TRUE(primary_->RegisterSchema(names_[1], xsds_[1]).ok());
  StartStandby();
  ASSERT_TRUE(AwaitCaughtUp());
  const uint64_t applied_old = stream_->stats().applied_seq;
  ASSERT_GT(applied_old, 1u);

  // Kill the primary and bring up a YOUNGER one on the same port: a fresh
  // log whose head is behind what the standby already applied.
  const uint16_t port = primary_->port();
  primary_->Stop();
  replica::ReplicationLog fresh_log(256);
  core::MatchEngine fresh_engine{core::MatchEngineOptions{}};
  ServerOptions options;
  options.port = port;
  options.replica_heartbeat = milliseconds(50);
  options.bind_retries = 100;
  options.bind_retry_backoff = milliseconds(20);
  replica::AttachPrimary(&fresh_engine, &options, &fresh_log);
  Server fresh_primary(&fresh_engine, options);
  ASSERT_TRUE(fresh_primary.Start().ok());
  ASSERT_TRUE(fresh_primary.RegisterSchema(names_[2], xsds_[2]).ok());

  // The standby must notice the younger sequence space, reset and
  // re-anchor — ending caught up on the NEW primary's head.
  ASSERT_TRUE(WaitFor(
      [&] {
        const replica::StandbyStats s = stream_->stats();
        return s.connected && s.applied_seq >= fresh_log.head_seq() &&
               s.applied_seq < applied_old;
      },
      milliseconds(5000)))
      << "standby never re-anchored on the younger primary";
#if QMATCH_OBS_ENABLED
  EXPECT_GE(CounterValue("replica.epoch_resets"), 1u);
#endif
  // The new primary's schema arrived through the re-anchor.
  EXPECT_TRUE(WaitFor(
      [&] {
        return standby_server_->schema_count() >= 3u;
      },
      milliseconds(2000)));
  fresh_primary.Stop();
}

// --- drain -----------------------------------------------------------------

TEST_F(HaTest, DrainDemotesRefusesNewWorkAndQuiesces) {
  StartPrimary();
  ASSERT_TRUE(primary_->RegisterSchema(names_[0], xsds_[0]).ok());
  ASSERT_TRUE(primary_->RegisterSchema(names_[1], xsds_[1]).ok());
  Result<Client> client = ConnectTo(*primary_);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->MatchPair(names_[0], names_[1], 5000).ok());

  const Status drained = primary_->Drain(test::Scaled(milliseconds(5000)));
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_EQ(primary_->role(), Role::kDraining);
  EXPECT_FALSE(primary_->Ready());

  // The listener is closed: no new connections.
  EXPECT_FALSE(ConnectTo(*primary_).ok());
  // The surviving connection gets typed refusals for engine work, so a
  // well-behaved client fails over instead of hanging.
  Result<MatchPairResp> refused = client->MatchPair(names_[0], names_[1], 0);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->head.status_code(), StatusCode::kUnavailable);
#if QMATCH_OBS_ENABLED
  EXPECT_GE(CounterValue("net.drains"), 1u);
#endif
}

TEST_F(HaTest, LatePromoteCannotResurrectADrainingServer) {
  // The qmatchd SIGTERM/SIGUSR1 race, regression-tested at the layer that
  // ultimately decides it: a promote that lands AFTER the drain started
  // must lose. kDraining is terminal — SetRole refuses to leave it, and
  // Standby::Promote declines a server that is no longer a standby (no
  // epoch is claimed for a promotion that cannot happen).
  StartPrimary();
  ASSERT_TRUE(primary_->RegisterSchema(names_[0], xsds_[0]).ok());
  StartStandby();
  ASSERT_TRUE(AwaitCaughtUp());
  const uint64_t epoch_before = standby_server_->epoch();

  ASSERT_TRUE(standby_server_->Drain(test::Scaled(milliseconds(5000))).ok());
  ASSERT_EQ(standby_server_->role(), Role::kDraining);

  // The operator's promote arrives late: a no-op, not a resurrection.
  stream_->Promote();
  EXPECT_EQ(standby_server_->role(), Role::kDraining)
      << "a late promote resurrected a draining server";
  EXPECT_EQ(standby_server_->epoch(), epoch_before)
      << "a refused promotion still claimed a fencing epoch";
  EXPECT_FALSE(standby_server_->Ready());

  // And the raw transition is refused (and counted) at the SetRole layer
  // too — the guard does not depend on Promote's own role check.
  standby_server_->SetRole(Role::kPrimary);
  EXPECT_EQ(standby_server_->role(), Role::kDraining);
#if QMATCH_OBS_ENABLED
  EXPECT_GE(CounterValue("net.role_changes_refused"), 1u);
#endif
}

// --- fencing epochs (tier-1 half; the partition chaos lives in
// net_splitbrain_test.cpp) ---------------------------------------------------

TEST_F(HaTest, EpochSurfacesInEveryResponseHeadAndProbe) {
  StartPrimary();
  ASSERT_TRUE(primary_->RegisterSchema(names_[0], xsds_[0]).ok());
  ASSERT_TRUE(primary_->RegisterSchema(names_[1], xsds_[1]).ok());
  Result<Client> client = ConnectTo(*primary_);
  ASSERT_TRUE(client.ok());

  // Typed frames: success and introspection heads both carry the epoch.
  Result<MatchPairResp> pair = client->MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(pair->head.ok());
  EXPECT_EQ(pair->head.epoch, 1u);
  Result<RoleResp> role = client->GetRole();
  ASSERT_TRUE(role.ok());
  EXPECT_EQ(role->head.epoch, 1u);
  Result<HealthResp> health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->head.epoch, 1u);

  // HTTP probes: both bodies name the epoch for operators and LBs.
  EXPECT_TRUE(Contains(HttpGet(primary_->port(), "/healthz"), "epoch=1"));
  EXPECT_TRUE(Contains(HttpGet(primary_->port(), "/readyz"), "epoch=1"));

  // Adoption moves what everything reports, atomically.
  ASSERT_TRUE(primary_->AdoptEpoch(7).ok());
  Result<RoleResp> after = client->GetRole();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->head.epoch, 7u);
  EXPECT_TRUE(Contains(HttpGet(primary_->port(), "/readyz"), "epoch=7"));
}

TEST_F(HaTest, DrainedStateSurvivesARestartWarm) {
  // The SIGTERM contract end to end: serve, drain, compact, die; a process
  // restarted on the same persist directory answers the same request from
  // the recovered cache, bit-identically.
  const std::string dir = ::testing::TempDir() + "qmatch_ha_drain_" +
                          std::to_string(::getpid());
  for (const char* file : {"/snapshot.qms", "/journal.qmj"}) {
    std::remove((dir + file).c_str());
  }
  core::MatchEngineOptions engine_options;
  engine_options.persist_dir = dir;
  uint64_t acknowledged_qom = 0;

  {
    core::MatchEngine engine(engine_options);
    Server server(&engine, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.RegisterSchema(names_[0], xsds_[0]).ok());
    ASSERT_TRUE(server.RegisterSchema(names_[1], xsds_[1]).ok());
    Result<Client> client = ConnectTo(server);
    ASSERT_TRUE(client.ok());
    Result<MatchPairResp> resp = client->MatchPair(names_[0], names_[1], 5000);
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp->head.ok()) << resp->head.message;
    acknowledged_qom = std::bit_cast<uint64_t>(resp->schema_qom);

    EXPECT_TRUE(server.Drain(test::Scaled(milliseconds(5000))).ok());
    server.Stop();
    ASSERT_TRUE(engine.CompactPersist().ok());
  }  // the old process is gone

  core::MatchEngine reborn(engine_options);
  Server server(&reborn, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.RegisterSchema(names_[0], xsds_[0]).ok());
  ASSERT_TRUE(server.RegisterSchema(names_[1], xsds_[1]).ok());
  Result<Client> client = ConnectTo(server);
  ASSERT_TRUE(client.ok());
  Result<MatchPairResp> resp = client->MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->head.ok()) << resp->head.message;
  // No replayable record was lost: the answer comes from the recovered
  // cache (a hit, not a recomputation) and is bit-identical.
  EXPECT_EQ(std::bit_cast<uint64_t>(resp->schema_qom), acknowledged_qom);
  EXPECT_GE(reborn.cache_stats().hits, 1u)
      << "restart answered cold: the drained journal lost the entry";
  server.Stop();
}

// --- bind retry ------------------------------------------------------------

TEST_F(HaTest, BindRetriesThroughALingeringListener) {
  // Occupy a port the way a dying predecessor would, release it shortly
  // after, and require the successor's Start() to win via retries instead
  // of dying with EADDRINUSE.
  const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(blocker, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread releaser([blocker] {
    std::this_thread::sleep_for(test::Scaled(milliseconds(150)));
    ::close(blocker);
  });

  core::MatchEngine engine{core::MatchEngineOptions{}};
  ServerOptions options;
  options.port = port;
  options.bind_retries = 200;
  options.bind_retry_backoff = milliseconds(20);
  Server server(&engine, options);
  const Status started = server.Start();
  releaser.join();
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(server.port(), port);
#if QMATCH_OBS_ENABLED
  EXPECT_GE(CounterValue("net.bind_retries"), 1u);
#endif

  // And it serves.
  Result<Client> client = ConnectTo(server);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Health().ok());
  server.Stop();
}

}  // namespace
}  // namespace qmatch::net
