// Socket-path chaos for qmatchd: seeded fault schedules on the net.*
// failpoints (accept, read, write, frame decode) plus client-side
// mid-request disconnects, driven against a live loopback server. The
// serving robustness contract:
//
//  * the server never crashes or hangs, and keeps accepting fresh
//    connections throughout;
//  * request-outcome accounting is exactly-once: net.requests equals the
//    sum of the per-outcome counters after every schedule, including
//    requests whose connection died before the response could be written;
//  * a response that does complete is bit-identical to the same match run
//    in-process — faults can kill a connection, never corrupt a result.
//
// Excluded from the default ctest run via CONFIGURATIONS chaos; run with
// `ctest -C chaos -L chaos` (scripts/ci.sh chaos|serve) under ASan/TSan.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "datagen/corpus.h"
#include "fault/failpoint.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/obs.h"
#include "test_util.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

#if !QMATCH_FAULT_ENABLED
#error "the chaos suite requires a -DQMATCH_FAULT=ON build"
#endif

namespace qmatch::net {
namespace {

using std::chrono::milliseconds;

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

/// The exactly-once ledger: net.requests must equal the sum of its
/// per-outcome splits, no matter which connections died when.
void ExpectOutcomeLedgerBalances(const Server& server) {
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
  // The obs mirror and the server's own atomic must agree exactly (in an
  // obs-off build the counters are compiled out; the atomic still counts).
  EXPECT_EQ(total, server.stats().requests);
#else
  (void)server;
#endif
}

class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetAll();
    engine_ = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    ServerOptions options;
    options.request_threads = 2;
    server_ = std::make_unique<Server>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    const auto& corpus = datagen::Corpus();
    for (size_t i = 0; i < 4; ++i) {
      names_.push_back(corpus[i].name);
      xsds_.push_back(xsd::ToXsd(corpus[i].make()));
      ASSERT_TRUE(server_->RegisterSchema(names_[i], xsds_[i]).ok());
    }
    // The fault-free reference: every completed wire response must be
    // bit-identical to this engine's result for the same pair.
    reference_ = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    for (size_t i = 0; i < 4; ++i) {
      xsd::ParseOptions parse;
      parse.schema_name = names_[i];
      Result<xsd::Schema> schema = xsd::ParseSchema(xsds_[i], parse);
      ASSERT_TRUE(schema.ok());
      ref_schemas_.push_back(std::make_unique<xsd::Schema>(std::move(*schema)));
    }
  }

  void TearDown() override { server_->Stop(); }

  Result<Client> Connect() {
    return Client::Connect("127.0.0.1", server_->port(),
                           test::Scaled(milliseconds(2000)));
  }

  /// Asserts a completed MatchPair response matches the in-process
  /// reference bit for bit.
  void ExpectBitIdentical(const MatchPairResp& resp, size_t src, size_t tgt) {
    const core::EngineMatchResult want = reference_->Match(
        *ref_schemas_[src], *ref_schemas_[tgt], core::EngineRequestOptions{});
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(resp.schema_qom),
              std::bit_cast<uint64_t>(want.result.schema_qom));
    ASSERT_EQ(resp.correspondences.size(),
              want.result.correspondences.size());
    for (size_t i = 0; i < resp.correspondences.size(); ++i) {
      EXPECT_EQ(resp.correspondences[i].source_path,
                want.result.correspondences[i].source->Path());
      EXPECT_EQ(resp.correspondences[i].target_path,
                want.result.correspondences[i].target->Path());
      EXPECT_EQ(std::bit_cast<uint64_t>(resp.correspondences[i].score),
                std::bit_cast<uint64_t>(want.result.correspondences[i].score));
    }
  }

  /// The survival check while a probabilistic fault is still armed: any
  /// single probe can legitimately die to an injected fault, so the
  /// property is that some fresh connection gets a real answer.
  void ExpectServerStillAnswers() {
    for (int attempt = 0; attempt < 10; ++attempt) {
      Result<Client> verify = Connect();
      if (!verify.ok()) continue;
      Result<StatsResp> stats = verify->GetStats();
      if (stats.ok() && stats->head.ok()) return;
    }
    ADD_FAILURE() << "no fresh connection could get an answer";
  }

  /// One schedule: with a probabilistic fault armed on one socket path, a
  /// client keeps issuing requests; transport failures are expected, typed
  /// results and completed payloads must stay correct throughout.
  void DriveRequests(uint64_t seed, int rounds) {
    Random rng(seed);
    int completed = 0;
    for (int round = 0; round < rounds; ++round) {
      Result<Client> client = Connect();
      if (!client.ok()) continue;  // accept fault dropped the connection
      const size_t src = static_cast<size_t>(rng.Uniform(names_.size()));
      size_t tgt = static_cast<size_t>(rng.Uniform(names_.size()));
      if (tgt == src) tgt = (tgt + 1) % names_.size();
      Result<MatchPairResp> resp =
          client->MatchPair(names_[src], names_[tgt], 5000);
      if (!resp.ok()) continue;  // read/write fault killed the connection
      if (resp->head.ok()) {
        ++completed;
        ExpectBitIdentical(*resp, src, tgt);
      } else {
        // Degraded outcomes must still be from the typed contract.
        const StatusCode code = resp->head.status_code();
        EXPECT_TRUE(code == StatusCode::kOverloaded ||
                    code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kDataLoss ||
                    code == StatusCode::kInvalidArgument)
            << "unexpected typed outcome: " << resp->head.message;
      }
    }
    EXPECT_GT(completed, 0) << "no request survived the schedule";
    // The server survives the schedule and still answers.
    ExpectServerStillAnswers();
  }

  std::unique_ptr<core::MatchEngine> engine_;
  std::unique_ptr<core::MatchEngine> reference_;
  std::unique_ptr<Server> server_;
  std::vector<std::string> names_;
  std::vector<std::string> xsds_;
  std::vector<std::unique_ptr<xsd::Schema>> ref_schemas_;
};

TEST_F(NetChaosTest, AcceptFaultsDropConnectionsNotTheServer) {
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  spec.probability = 0.3;
  spec.seed = 17;
  fault::ScopedFailpoint fp("net.accept", spec);
  DriveRequests(/*seed=*/101, /*rounds=*/25);
  ExpectOutcomeLedgerBalances(*server_);
}

TEST_F(NetChaosTest, ReadFaultsKillConnectionsNeverCorruptResults) {
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  spec.probability = 0.25;
  spec.seed = 23;
  fault::ScopedFailpoint fp("net.read", spec);
  DriveRequests(/*seed=*/202, /*rounds=*/25);
  ExpectOutcomeLedgerBalances(*server_);
}

TEST_F(NetChaosTest, WriteFaultsLoseResponsesNeverTheAccounting) {
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  spec.probability = 0.25;
  spec.seed = 31;
  fault::ScopedFailpoint fp("net.write", spec);
  DriveRequests(/*seed=*/303, /*rounds=*/25);
  // Write faults kill connections after the outcome was counted on the
  // worker — the ledger must still balance exactly.
  ExpectOutcomeLedgerBalances(*server_);
}

TEST_F(NetChaosTest, FrameFaultsAnswerTypedDataLossAndClose) {
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  spec.probability = 0.5;
  spec.seed = 41;
  fault::ScopedFailpoint fp("net.frame", spec);
  int typed_errors = 0;
  for (int round = 0; round < 20; ++round) {
    Result<Client> client = Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SendBytes(EncodeFrame(MsgType::kGetStats, "")).ok());
    Result<Frame> reply = client->ReadFrame();
    if (!reply.ok()) continue;  // injected fault raced the whole exchange
    if (reply->type == static_cast<uint32_t>(MsgType::kErrorResp)) {
      ResponseHead head;
      ASSERT_TRUE(Decode(reply->payload, &head));
      EXPECT_EQ(head.status_code(), StatusCode::kDataLoss);
      ++typed_errors;
      // The stream is closed after the typed answer.
      EXPECT_FALSE(client->ReadFrame().ok());
    } else {
      EXPECT_EQ(reply->type, static_cast<uint32_t>(MsgType::kGetStatsResp));
    }
  }
  EXPECT_GT(typed_errors, 0) << "the frame failpoint never fired";
  // Injected frame corruption counts as bad frames, not requests — the
  // request ledger stays exact.
  EXPECT_GE(server_->stats().bad_frames, static_cast<uint64_t>(typed_errors));
  ExpectOutcomeLedgerBalances(*server_);
}

TEST_F(NetChaosTest, MidRequestDisconnectsStillCountExactlyOnce) {
  // Fire a batch of matches and slam the connection shut immediately:
  // the response is lost, the outcome must still be counted exactly once.
  const int kDropped = 12;
  for (int i = 0; i < kDropped; ++i) {
    Result<Client> client = Connect();
    ASSERT_TRUE(client.ok());
    MatchPairReq req{names_[0], names_[1], 5000};
    ASSERT_TRUE(
        client->SendBytes(EncodeFrame(MsgType::kMatchPair, Encode(req))).ok());
    client->Close();  // mid-request disconnect
  }
  // One well-behaved request to pin the "still works" end of the contract.
  Result<Client> client = Connect();
  ASSERT_TRUE(client.ok());
  Result<MatchPairResp> resp = client->MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->head.ok()) << resp->head.message;
  ExpectBitIdentical(*resp, 0, 1);

  // Dropped requests finish on the workers asynchronously; wait for the
  // ledger to converge on every dispatched request, then check exactness.
  const uint64_t expected = static_cast<uint64_t>(kDropped) + 1;
  for (int i = 0; i < 400 && server_->stats().requests < expected; ++i) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(server_->stats().requests, expected);
  ExpectOutcomeLedgerBalances(*server_);
}

TEST_F(NetChaosTest, CombinedScheduleKeepsTheLedgerExact) {
  // Everything at once: accept, read and write faults plus a client mix.
  fault::FaultSpec accept_spec;
  accept_spec.action = fault::FaultAction::kError;
  accept_spec.probability = 0.15;
  accept_spec.seed = 71;
  fault::ScopedFailpoint accept_fp("net.accept", accept_spec);
  fault::FaultSpec read_spec;
  read_spec.action = fault::FaultAction::kError;
  read_spec.probability = 0.1;
  read_spec.seed = 73;
  fault::ScopedFailpoint read_fp("net.read", read_spec);
  fault::FaultSpec write_spec;
  write_spec.action = fault::FaultAction::kError;
  write_spec.probability = 0.1;
  write_spec.seed = 79;
  fault::ScopedFailpoint write_fp("net.write", write_spec);

  Random rng(4242);
  for (int round = 0; round < 30; ++round) {
    Result<Client> client = Connect();
    if (!client.ok()) continue;
    const uint64_t kind = rng.Uniform(4);
    if (kind == 0) {
      (void)client->GetStats();
    } else if (kind == 1) {
      (void)client->MatchCorpus(names_[0], 5000);
    } else if (kind == 2) {
      MatchPairReq req{names_[0], names_[2], 5000};
      if (client->SendBytes(EncodeFrame(MsgType::kMatchPair, Encode(req)))
              .ok()) {
        client->Close();  // another mid-request drop
      }
    } else {
      Result<MatchPairResp> resp =
          client->MatchPair(names_[1], names_[3], 5000);
      if (resp.ok() && resp->head.ok()) ExpectBitIdentical(*resp, 1, 3);
    }
  }
  // Let in-flight executions drain, then the ledger must balance.
  std::this_thread::sleep_for(test::Scaled(milliseconds(300)));
  ExpectOutcomeLedgerBalances(*server_);
  ExpectServerStillAnswers();
}

}  // namespace
}  // namespace qmatch::net
