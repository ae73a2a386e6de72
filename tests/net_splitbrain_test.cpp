// Split-brain chaos for the HA pair (DESIGN.md §16): two full servers with
// persisted fencing epochs, a network partition injected mid-load, a
// promotion on the isolated standby, clients driven at BOTH sides, and a
// heal. The fencing contract under partition:
//
//  * the exactly-once ledger never holds two epochs' acks for one request
//    id — each logical request is acknowledged by at most one epoch, and a
//    client that has seen the winning epoch never again acks from a loser;
//  * every acknowledged response is bit-identical to a fresh, fault-free
//    reference engine — a partition can refuse an answer, never change one;
//  * the fenced old primary's refusals are all typed
//    kUnavailable{stale_epoch} naming the winning epoch, for engine work
//    and for replica subscriptions alike;
//  * after the heal the old primary self-demotes, adopts the winning epoch
//    (persisted), and re-joins as a standby of the new primary.
//
// Excluded from the default ctest run via CONFIGURATIONS chaos; run with
// `ctest -C chaos -L chaos` (scripts/ci.sh chaos|ha) under ASan/TSan.
// Seeds come from QMATCH_CHAOS_SEEDS (comma-separated, default "1,2,3").

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/random.h"
#include "core/engine.h"
#include "datagen/corpus.h"
#include "fault/failpoint.h"
#include "net/client.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "obs/obs.h"
#include "persist/epoch.h"
#include "replica/log.h"
#include "replica/primary.h"
#include "replica/standby.h"
#include "replica/wire.h"
#include "test_util.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

#if !QMATCH_FAULT_ENABLED
#error "the split-brain chaos suite requires a -DQMATCH_FAULT=ON build"
#endif

namespace qmatch::net {
namespace {

using std::chrono::milliseconds;

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("QMATCH_CHAOS_SEEDS");
  std::string spec = env != nullptr ? env : "1,2,3";
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) {
      seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (seeds.empty()) seeds = {1, 2, 3};
  return seeds;
}

template <typename Pred>
bool WaitFor(Pred pred, milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + test::Scaled(deadline);
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return pred();
}

/// One-shot HTTP GET against the server's port: request line, read to EOF
/// (the server closes after answering). Empty string on any failure.
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

/// A fresh epoch directory for one server in one seed iteration: epochs
/// only ever grow, so a leftover epoch.qme from the previous seed would
/// shift every expected epoch number.
std::string FreshEpochDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "qmatch_splitbrain_" + tag +
                          "_" + std::to_string(::getpid());
  EXPECT_TRUE(EnsureDir(dir).ok());
  std::remove(persist::EpochPath(dir).c_str());
  return dir;
}

/// The symmetric partition: the replication stream is severed (subscribes
/// swallowed, live subscribers dropped on the next heartbeat) and the peer
/// epoch probe is suppressed — neither half can hear the other. Healing is
/// destroying this object.
struct Partition {
  fault::ScopedFailpoint replica{"net.partition.replica", fault::FaultSpec{}};
  fault::ScopedFailpoint peer{"net.partition.peer", fault::FaultSpec{}};
};

/// Two qmatchd-shaped processes, each with its OWN replication log and
/// epoch directory — the standby's log stays empty while it applies (apply
/// paths never echo), and becomes the stream it serves once promoted.
class SplitPair {
 public:
  SplitPair(const std::vector<std::string>& names,
            const std::vector<std::string>& xsds, const std::string& tag) {
    log_a = std::make_unique<replica::ReplicationLog>(512);
    engine_a = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    ServerOptions options_a;
    options_a.replica_heartbeat = milliseconds(50);
    options_a.peer_probe_timeout = test::Scaled(milliseconds(200));
    options_a.ready_lag_records = 8;
    epoch_dir_a = FreshEpochDir(tag + "_a");
    options_a.epoch_dir = epoch_dir_a;
    replica::AttachPrimary(engine_a.get(), &options_a, log_a.get());
    server_a = std::make_unique<Server>(engine_a.get(), options_a);
    EXPECT_TRUE(server_a->Start().ok());
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_TRUE(server_a->RegisterSchema(names[i], xsds[i]).ok());
    }

    log_b = std::make_unique<replica::ReplicationLog>(512);
    engine_b = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    ServerOptions options_b;
    options_b.replica_heartbeat = milliseconds(50);
    options_b.peer_probe_timeout = test::Scaled(milliseconds(200));
    options_b.ready_lag_records = 8;
    epoch_dir_b = FreshEpochDir(tag + "_b");
    options_b.epoch_dir = epoch_dir_b;
    // AttachPrimary wires the engine/schema observers and forces the role
    // to kPrimary; B starts life as a standby of A, so flip it back. The
    // observers are inert until B originates mutations (post-promotion).
    replica::AttachPrimary(engine_b.get(), &options_b, log_b.get());
    options_b.role = Role::kStandby;
    server_b = std::make_unique<Server>(engine_b.get(), options_b);
    EXPECT_TRUE(server_b->Start().ok());

    // Both ports exist only now: point the anti-split-brain probes at each
    // other (B's probe stays dormant until it becomes a primary).
    server_a->SetPeer("127.0.0.1", server_b->port());
    server_b->SetPeer("127.0.0.1", server_a->port());

    replica::StandbyOptions stream_options;
    stream_options.primary_port = server_a->port();
    stream_options.read_timeout = test::Scaled(milliseconds(1000));
    stream_options.backoff_base = milliseconds(10);
    stream_options.backoff_cap = milliseconds(100);
    stream_b = std::make_unique<replica::Standby>(engine_b.get(),
                                                  server_b.get(),
                                                  stream_options);
    EXPECT_TRUE(stream_b->Start().ok());
  }

  ~SplitPair() {
    if (stream_a != nullptr) stream_a->Stop();
    stream_b->Stop();
    server_b->Stop();
    server_a->Stop();
  }

  bool AwaitCaughtUp() {
    return WaitFor(
        [this] {
          const replica::StandbyStats s = stream_b->stats();
          return s.connected && s.applied_seq >= log_a->head_seq();
        },
        milliseconds(10000));
  }

  /// The healed old primary re-joins as a standby of B: a fresh stream on
  /// A's engine and server, pointed at the new primary. The first
  /// subscribe goes out with A's stale epoch, is rejected, and the
  /// rejection head is how A adopts the winning epoch.
  void RejoinAAsStandbyOfB() {
    replica::StandbyOptions stream_options;
    stream_options.primary_port = server_b->port();
    stream_options.read_timeout = test::Scaled(milliseconds(1000));
    stream_options.backoff_base = milliseconds(10);
    stream_options.backoff_cap = milliseconds(100);
    stream_a = std::make_unique<replica::Standby>(engine_a.get(),
                                                  server_a.get(),
                                                  stream_options);
    EXPECT_TRUE(stream_a->Start().ok());
  }

  std::string epoch_dir_a;
  std::string epoch_dir_b;
  std::unique_ptr<replica::ReplicationLog> log_a;
  std::unique_ptr<core::MatchEngine> engine_a;
  std::unique_ptr<Server> server_a;
  std::unique_ptr<replica::ReplicationLog> log_b;
  std::unique_ptr<core::MatchEngine> engine_b;
  std::unique_ptr<Server> server_b;
  std::unique_ptr<replica::Standby> stream_b;
  std::unique_ptr<replica::Standby> stream_a;  // created by RejoinAAsStandbyOfB
};

class NetSplitBrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& corpus = datagen::Corpus();
    for (size_t i = 0; i < 4; ++i) {
      names_.push_back(corpus[i].name);
      xsds_.push_back(xsd::ToXsd(corpus[i].make()));
    }
    reference_ = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    for (size_t i = 0; i < 4; ++i) {
      xsd::ParseOptions parse;
      parse.schema_name = names_[i];
      Result<xsd::Schema> schema = xsd::ParseSchema(xsds_[i], parse);
      ASSERT_TRUE(schema.ok());
      ref_schemas_.push_back(std::make_unique<xsd::Schema>(std::move(*schema)));
    }
  }

  void ExpectBitIdentical(const MatchPairResp& resp, size_t src, size_t tgt) {
    const core::EngineMatchResult want = reference_->Match(
        *ref_schemas_[src], *ref_schemas_[tgt], core::EngineRequestOptions{});
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(resp.schema_qom),
              std::bit_cast<uint64_t>(want.result.schema_qom));
    ASSERT_EQ(resp.correspondences.size(), want.result.correspondences.size());
    for (size_t i = 0; i < resp.correspondences.size(); ++i) {
      EXPECT_EQ(resp.correspondences[i].source_path,
                want.result.correspondences[i].source->Path());
      EXPECT_EQ(resp.correspondences[i].target_path,
                want.result.correspondences[i].target->Path());
      EXPECT_EQ(std::bit_cast<uint64_t>(resp.correspondences[i].score),
                std::bit_cast<uint64_t>(want.result.correspondences[i].score));
    }
  }

  ResilientClientOptions ClientOptions(uint16_t first, uint16_t second,
                                       uint64_t seed) {
    ResilientClientOptions options;
    options.endpoints = {Endpoint{"127.0.0.1", first},
                         Endpoint{"127.0.0.1", second}};
    options.connect_timeout = test::Scaled(milliseconds(1000));
    options.io_timeout = test::Scaled(milliseconds(5000));
    options.call_deadline = test::Scaled(milliseconds(20000));
    options.retry_budget = 8;
    options.backoff_base = milliseconds(5);
    options.backoff_cap = milliseconds(50);
    options.backoff_seed = seed;
    return options;
  }

  /// One acknowledged logical request into the ledger: request id ->
  /// the set of epochs that ever acked it. The split-brain invariant is
  /// |set| <= 1 for every id.
  void RecordAck(std::map<int, std::set<uint64_t>>* ledger, int request_id,
                 const MatchPairResp& resp, size_t src, size_t tgt) {
    ASSERT_TRUE(resp.head.ok()) << resp.head.message;
    ASSERT_NE(resp.head.epoch, 0u) << "epoch-aware server sent epoch 0";
    (*ledger)[request_id].insert(resp.head.epoch);
    ExpectBitIdentical(resp, src, tgt);
  }

  std::vector<std::string> names_;
  std::vector<std::string> xsds_;
  std::unique_ptr<core::MatchEngine> reference_;
  std::vector<std::unique_ptr<xsd::Schema>> ref_schemas_;
};

// The whole story, per seed: partition mid-load, promote the isolated
// standby, drive clients at both sides, heal, and require the ledger,
// the fence, and the re-join to all hold.
TEST_F(NetSplitBrainTest, PartitionPromoteHealYieldsOneEpochOfAcksPerRequest) {
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("QMATCH_CHAOS_SEEDS=" + std::to_string(seed));
    obs::Registry::Global().ResetAll();
    SplitPair pair(names_, xsds_, "ledger_s" + std::to_string(seed));
    Random rng(seed);
    std::map<int, std::set<uint64_t>> ledger;
    int next_id = 0;

    // Epoch floor: both sides boot at epoch 1, nobody fenced.
    EXPECT_EQ(pair.server_a->epoch(), 1u);
    EXPECT_EQ(pair.server_b->epoch(), 1u);

    // Client A prefers the old primary, client B the standby — "clients at
    // both sides" once the brain splits.
    ResilientClient client_a(ClientOptions(pair.server_a->port(),
                                           pair.server_b->port(), seed));
    ResilientClient client_b(ClientOptions(pair.server_b->port(),
                                           pair.server_a->port(), seed ^ 0xB));

    // Healthy load before the partition: acks carry epoch 1.
    const int warm_rounds = 2 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < warm_rounds; ++i) {
      const size_t src = static_cast<size_t>(rng.Uniform(names_.size()));
      size_t tgt = static_cast<size_t>(rng.Uniform(names_.size()));
      if (tgt == src) tgt = (tgt + 1) % names_.size();
      Result<MatchPairResp> resp =
          client_a.MatchPair(names_[src], names_[tgt], 5000);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      RecordAck(&ledger, next_id++, *resp, src, tgt);
      ASSERT_FALSE(ledger[next_id - 1].empty());
      EXPECT_EQ(*ledger[next_id - 1].begin(), 1u);
    }
    ASSERT_TRUE(pair.AwaitCaughtUp());

    // --- the partition ------------------------------------------------------
    std::optional<Partition> partition;
    partition.emplace();

    // Mid-partition load at the doomed primary: it cannot know it lost,
    // so these acks are legitimately epoch 1.
    const int split_rounds = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < split_rounds; ++i) {
      const size_t src = static_cast<size_t>(rng.Uniform(names_.size()));
      size_t tgt = static_cast<size_t>(rng.Uniform(names_.size()));
      if (tgt == src) tgt = (tgt + 1) % names_.size();
      Result<MatchPairResp> resp =
          client_a.MatchPair(names_[src], names_[tgt], 5000);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      RecordAck(&ledger, next_id++, *resp, src, tgt);
    }

    // The isolated standby is promoted: epoch 2, persisted BEFORE the role
    // flipped, so it is already on disk by the time we can observe kPrimary.
    pair.stream_b->Promote();
    ASSERT_EQ(pair.server_b->role(), Role::kPrimary);
    ASSERT_EQ(pair.server_b->epoch(), 2u);
    {
      Result<uint64_t> on_disk = persist::LoadEpoch(pair.epoch_dir_b);
      ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
      EXPECT_EQ(*on_disk, 2u) << "promotion did not persist the epoch";
    }

    // Split brain proper: both halves answer, each stamped with its own
    // epoch. Distinct request ids — the ledger invariant is about one id
    // never being acked twice under different epochs.
    const int brain_rounds = 3 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < brain_rounds; ++i) {
      const size_t src = static_cast<size_t>(rng.Uniform(names_.size()));
      size_t tgt = static_cast<size_t>(rng.Uniform(names_.size()));
      if (tgt == src) tgt = (tgt + 1) % names_.size();
      Result<MatchPairResp> at_a =
          client_a.MatchPair(names_[src], names_[tgt], 5000);
      ASSERT_TRUE(at_a.ok()) << at_a.status().ToString();
      RecordAck(&ledger, next_id++, *at_a, src, tgt);
      Result<MatchPairResp> at_b =
          client_b.MatchPair(names_[src], names_[tgt], 5000);
      ASSERT_TRUE(at_b.ok()) << at_b.status().ToString();
      RecordAck(&ledger, next_id++, *at_b, src, tgt);
    }
    EXPECT_EQ(client_b.highest_epoch(), 2u);

    // --- the heal -----------------------------------------------------------
    partition.reset();

    // The old primary's next peer probe hears epoch 2 and fences itself:
    // self-demotion to standby, every mutable request refused typed.
    ASSERT_TRUE(WaitFor(
        [&] {
          return pair.server_a->fenced() &&
                 pair.server_a->role() == Role::kStandby;
        },
        milliseconds(10000)))
        << "healed old primary never fenced itself (epoch_seen="
        << pair.server_a->epoch_seen() << ")";
    EXPECT_GE(pair.server_a->stats().self_demotions, 1u);
    EXPECT_GE(CounterValue("net.self_demotions"), 1u);

    // Fenced refusals are typed, name the winner, and cover replica
    // subscriptions too — a stale primary must not re-anchor anyone.
    {
      Result<Client> probe = Client::Connect("127.0.0.1",
                                             pair.server_a->port(),
                                             test::Scaled(milliseconds(5000)));
      ASSERT_TRUE(probe.ok());
      Result<MatchPairResp> refused =
          probe->MatchPair(names_[0], names_[1], 5000);
      ASSERT_TRUE(refused.ok()) << refused.status().ToString();
      EXPECT_EQ(refused->head.status_code(), StatusCode::kUnavailable);
      EXPECT_NE(refused->head.message.find("stale_epoch"), std::string::npos)
          << refused->head.message;
      EXPECT_NE(refused->head.message.find("winner_epoch=2"),
                std::string::npos)
          << refused->head.message;

      replica::SubscribeReq sub;
      sub.from_seq = 1;
      sub.epoch = 1;
      ASSERT_TRUE(
          probe->SendBytes(EncodeFrame(MsgType::kReplicaSubscribe, Encode(sub)))
              .ok());
      Result<Frame> verdict = probe->ReadFrame();
      ASSERT_TRUE(verdict.ok());
      ASSERT_EQ(verdict->type, static_cast<uint32_t>(MsgType::kErrorResp));
      ResponseHead head;
      ASSERT_TRUE(Decode(verdict->payload, &head));
      EXPECT_EQ(head.status_code(), StatusCode::kUnavailable);
      EXPECT_NE(head.message.find("stale_epoch"), std::string::npos);
    }
    EXPECT_GE(pair.server_a->stats().stale_refusals, 2u);

    // Client A rode the losing half: its next calls hit the fence, parse
    // the winner from the refusal, fail over, and from here on ack ONLY
    // epoch 2 — never back to the stale endpoint.
    for (int i = 0; i < 3; ++i) {
      const size_t src = static_cast<size_t>(rng.Uniform(names_.size()));
      size_t tgt = static_cast<size_t>(rng.Uniform(names_.size()));
      if (tgt == src) tgt = (tgt + 1) % names_.size();
      Result<MatchPairResp> resp =
          client_a.MatchPair(names_[src], names_[tgt], 5000);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      RecordAck(&ledger, next_id++, *resp, src, tgt);
      ASSERT_FALSE(ledger[next_id - 1].empty());
      EXPECT_EQ(*ledger[next_id - 1].begin(), 2u)
          << "client acked from the fenced epoch after seeing the winner";
    }
    EXPECT_EQ(client_a.highest_epoch(), 2u);

    // Re-join: the healed old primary becomes a standby of the new epoch —
    // adopts (and persists) epoch 2, fence lifted, stream caught up.
    pair.RejoinAAsStandbyOfB();
    ASSERT_TRUE(WaitFor(
        [&] {
          const replica::StandbyStats s = pair.stream_a->stats();
          return pair.server_a->epoch() == 2 && !pair.server_a->fenced() &&
                 s.connected && s.applied_seq >= pair.log_b->head_seq();
        },
        milliseconds(10000)))
        << "old primary never re-joined: epoch=" << pair.server_a->epoch()
        << " fenced=" << pair.server_a->fenced()
        << " applied=" << pair.stream_a->stats().applied_seq
        << " head=" << pair.log_b->head_seq();
    EXPECT_EQ(pair.server_a->role(), Role::kStandby);
    EXPECT_EQ(pair.server_a->schema_count(), names_.size());

    // /readyz converges truthfully on both sides: the winner serves as
    // primary at epoch 2, the healed old primary as a caught-up (ready)
    // standby of the same epoch.
    ASSERT_TRUE(WaitFor(
        [&] { return Contains(HttpGet(pair.server_a->port(), "/readyz"),
                              "200"); },
        milliseconds(5000)))
        << "healed standby never became ready";
    EXPECT_TRUE(
        Contains(HttpGet(pair.server_a->port(), "/readyz"), "epoch=2"));
    const std::string readyz_b = HttpGet(pair.server_b->port(), "/readyz");
    EXPECT_TRUE(Contains(readyz_b, "200"));
    EXPECT_TRUE(Contains(readyz_b, "epoch=2"));

    // The ledger: at most ONE epoch's acks per request id, ever.
    for (const auto& [id, epochs] : ledger) {
      EXPECT_LE(epochs.size(), 1u)
          << "request " << id << " was acknowledged under "
          << epochs.size() << " different epochs";
    }

    // Exactly-once accounting still balances across both processes, the
    // typed stale refusals included.
    const uint64_t total = CounterValue("net.requests");
    const uint64_t split = CounterValue("net.requests_ok") +
                           CounterValue("net.requests_error") +
                           CounterValue("net.requests_overloaded") +
                           CounterValue("net.requests_deadline_exceeded") +
                           CounterValue("net.requests_resource_exhausted") +
                           CounterValue("net.requests_cancelled") +
                           CounterValue("net.requests_unavailable");
    EXPECT_EQ(total, split);
#if QMATCH_OBS_ENABLED
    EXPECT_EQ(total, pair.server_a->stats().requests +
                         pair.server_b->stats().requests);
#endif
  }
}

// Promotion's crash-safety ordering, deterministically: the bumped epoch
// is on disk before the role flip is observable, a restart on the same
// epoch directory starts at the persisted epoch, and Promote is
// idempotent.
TEST_F(NetSplitBrainTest, PromotePersistsTheEpochBeforeTheRoleFlips) {
  obs::Registry::Global().ResetAll();
  SplitPair pair(names_, xsds_, "persist");
  ASSERT_TRUE(pair.AwaitCaughtUp());
  {
    Result<uint64_t> before = persist::LoadEpoch(pair.epoch_dir_b);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_EQ(*before, 0u) << "epoch file existed before the first promotion";
  }

  Partition partition;
  pair.stream_b->Promote();
  EXPECT_EQ(pair.server_b->role(), Role::kPrimary);
  EXPECT_EQ(pair.server_b->epoch(), 2u);
  Result<uint64_t> persisted = persist::LoadEpoch(pair.epoch_dir_b);
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_EQ(*persisted, 2u);

  // Idempotent: a second Promote on an already-primary server is a no-op.
  pair.stream_b->Promote();
  EXPECT_EQ(pair.server_b->epoch(), 2u);

  // A restart on the same epoch directory resumes AT the persisted epoch
  // even when its configured floor says 1.
  core::MatchEngine reborn{core::MatchEngineOptions{}};
  ServerOptions options;
  options.epoch_dir = pair.epoch_dir_b;
  Server server(&reborn, options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.epoch(), 2u);
  server.Stop();
}

// The client half of the fence: once an endpoint's last answer is known
// stale, failover never returns to it while the winner lives — and when
// the winner dies too, the client surfaces a typed error rather than
// quietly acking from the loser.
TEST_F(NetSplitBrainTest, ClientNeverFailsBackToAStaleEpochEndpoint) {
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("QMATCH_CHAOS_SEEDS=" + std::to_string(seed));
    obs::Registry::Global().ResetAll();
    SplitPair pair(names_, xsds_, "noback_s" + std::to_string(seed));
    ResilientClientOptions options = ClientOptions(pair.server_a->port(),
                                                   pair.server_b->port(), seed);
    options.retry_budget = 3;
    options.call_deadline = test::Scaled(milliseconds(3000));
    ResilientClient client(options);
    ASSERT_TRUE(client.MatchPair(names_[0], names_[1], 5000).ok());
    ASSERT_TRUE(pair.AwaitCaughtUp());

    std::optional<Partition> partition;
    partition.emplace();
    pair.stream_b->Promote();
    partition.reset();
    ASSERT_TRUE(WaitFor([&] { return pair.server_a->fenced(); },
                        milliseconds(10000)));

    // Through the fence: the stale refusal routes the client to the new
    // primary and records endpoint A as stale.
    Result<MatchPairResp> routed = client.MatchPair(names_[0], names_[1], 5000);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_TRUE(routed->head.ok()) << routed->head.message;
    EXPECT_EQ(routed->head.epoch, 2u);
    ExpectBitIdentical(*routed, 0, 1);
    EXPECT_EQ(client.current_endpoint(), 1u);
    EXPECT_EQ(client.highest_epoch(), 2u);
    EXPECT_EQ(client.endpoint_epoch(0), 1u) << "stale endpoint not recorded";

    // The winner dies. The only other endpoint is known stale: the client
    // must NOT fail back to it — budget exhaustion with a typed error, and
    // the sticky endpoint still the (dead) winner.
    pair.server_b->Stop();
    Result<MatchPairResp> refused = client.MatchPair(names_[0], names_[1], 5000);
    ASSERT_FALSE(refused.ok());
    EXPECT_GE(client.stats().stale_endpoint_skips, 1u);
    EXPECT_EQ(client.current_endpoint(), 1u)
        << "client failed back to the fenced epoch's endpoint";
  }
}

}  // namespace
}  // namespace qmatch::net
