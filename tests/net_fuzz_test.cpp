// Seeded mutation fuzz over qmatchd's socket face. The mutator takes
// valid request frames and applies truncation, bitflips, bogus length
// fields, frame splices, raw garbage and tiny-chunk partial writes; the
// server's contract under every mutation:
//
//  * every frame it sends back decodes as a known response type (a typed
//    error frame counts — a silently dropped connection does not);
//  * the connection either keeps working, closes cleanly, or stalls
//    waiting for more bytes (a truncated frame is incomplete, not wrong);
//  * the server never crashes, never hangs, and still serves fresh
//    connections after the whole barrage.
//
// Seeded and deterministic: failures name the seed + iteration. Labelled
// `fuzz`, so scripts/ci.sh asan|fuzz re-runs it instrumented.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "datagen/corpus.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "test_util.h"
#include "xsd/writer.h"

namespace qmatch::net {
namespace {

using std::chrono::milliseconds;

/// Read timeout while probing a fuzzed connection. Short: a stalled server
/// (waiting for the rest of a truncated frame) is acceptable and common,
/// so this bounds the per-iteration cost.
const milliseconds kProbeTimeout = test::Scaled(milliseconds(100));

enum class Outcome { kResponses, kCleanClose, kStall, kViolation };

/// Drains the connection: every arriving frame must decode as a known
/// response type. Returns how the exchange ended. With `stop_after_first`
/// the probe returns right after one decoded response (the strict
/// request-response cases, so a healthy exchange never waits out the
/// timeout).
Outcome Probe(Client& client, std::string* violation,
              bool stop_after_first = false) {
  bool saw_response = false;
  while (true) {
    if (saw_response && stop_after_first) return Outcome::kResponses;
    Result<Frame> frame = client.ReadFrame();
    if (!frame.ok()) {
      const std::string& msg = frame.status().message();
      if (msg.find("timed out") != std::string::npos) {
        return saw_response ? Outcome::kResponses : Outcome::kStall;
      }
      if (frame.status().code() == StatusCode::kIoError) {
        return Outcome::kCleanClose;  // closed (FIN or RST after our bytes)
      }
      *violation = "unframeable server bytes: " + frame.status().ToString();
      return Outcome::kViolation;
    }
    saw_response = true;
    switch (static_cast<MsgType>(frame->type)) {
      case MsgType::kErrorResp: {
        ResponseHead head;
        if (!Decode(frame->payload, &head) || head.ok()) {
          *violation = "error frame without a typed non-OK head";
          return Outcome::kViolation;
        }
        break;
      }
      case MsgType::kSubmitSchemaResp: {
        SubmitSchemaResp resp;
        if (!Decode(frame->payload, &resp)) {
          *violation = "undecodable SubmitSchema response";
          return Outcome::kViolation;
        }
        break;
      }
      case MsgType::kMatchPairResp: {
        MatchPairResp resp;
        if (!Decode(frame->payload, &resp)) {
          *violation = "undecodable MatchPair response";
          return Outcome::kViolation;
        }
        break;
      }
      case MsgType::kMatchCorpusResp: {
        MatchCorpusResp resp;
        if (!Decode(frame->payload, &resp)) {
          *violation = "undecodable MatchCorpus response";
          return Outcome::kViolation;
        }
        break;
      }
      case MsgType::kGetStatsResp: {
        StatsResp resp;
        if (!Decode(frame->payload, &resp)) {
          *violation = "undecodable Stats response";
          return Outcome::kViolation;
        }
        break;
      }
      case MsgType::kGetMetricsResp: {
        MetricsResp resp;
        if (!Decode(frame->payload, &resp)) {
          *violation = "undecodable Metrics response";
          return Outcome::kViolation;
        }
        break;
      }
      default:
        *violation = "unknown response type " + std::to_string(frame->type);
        return Outcome::kViolation;
    }
  }
}

/// A pool of valid request frames to mutate.
std::vector<std::string> SeedFrames() {
  const auto& corpus = datagen::Corpus();
  const std::string xsd0 = xsd::ToXsd(corpus[0].make());
  std::vector<std::string> frames;
  frames.push_back(EncodeFrame(MsgType::kSubmitSchema,
                               Encode(SubmitSchemaReq{"s0", xsd0})));
  frames.push_back(EncodeFrame(MsgType::kMatchPair,
                               Encode(MatchPairReq{"s0", "s1", 100})));
  frames.push_back(EncodeFrame(MsgType::kMatchCorpus,
                               Encode(MatchCorpusReq{"s0", 100})));
  frames.push_back(EncodeFrame(MsgType::kGetStats, ""));
  frames.push_back(EncodeFrame(MsgType::kGetMetrics, ""));
  return frames;
}

enum class Mutation {
  kTruncate,
  kBitflip,
  kBogusLength,
  kSplice,
  kGarbage,
  kChunkedValid,
  kCount,
};

std::string Mutate(Random& rng, const std::vector<std::string>& seeds,
                   Mutation mutation) {
  std::string bytes = seeds[static_cast<size_t>(rng.Uniform(seeds.size()))];
  switch (mutation) {
    case Mutation::kTruncate:
      bytes.resize(static_cast<size_t>(rng.Uniform(bytes.size())));
      break;
    case Mutation::kBitflip: {
      const int flips = static_cast<int>(rng.UniformRange(1, 8));
      for (int i = 0; i < flips; ++i) {
        const size_t pos = static_cast<size_t>(rng.Uniform(bytes.size()));
        bytes[pos] = static_cast<char>(
            bytes[pos] ^ static_cast<char>(1u << rng.Uniform(8)));
      }
      break;
    }
    case Mutation::kBogusLength: {
      // Overwrite the u32 length field (bytes 4..7) with a random value —
      // sometimes hostile (> cap), sometimes merely lying.
      const uint32_t length = static_cast<uint32_t>(rng.Next());
      for (int i = 0; i < 4; ++i) {
        bytes[4 + static_cast<size_t>(i)] =
            static_cast<char>((length >> (8 * i)) & 0xFF);
      }
      break;
    }
    case Mutation::kSplice: {
      const std::string& other =
          seeds[static_cast<size_t>(rng.Uniform(seeds.size()))];
      const size_t cut = static_cast<size_t>(rng.Uniform(bytes.size()));
      const size_t skip = static_cast<size_t>(rng.Uniform(other.size()));
      bytes = bytes.substr(0, cut) + other.substr(skip);
      break;
    }
    case Mutation::kGarbage: {
      const size_t len = static_cast<size_t>(rng.UniformRange(1, 256));
      bytes.resize(len);
      for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
      break;
    }
    case Mutation::kChunkedValid:
    case Mutation::kCount:
      break;  // sent unmodified, in tiny chunks
  }
  return bytes;
}

class NetFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    ServerOptions options;
    options.request_threads = 2;
    server_ = std::make_unique<Server>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    // One real schema so decodable mutants can hit the engine path too.
    const auto& corpus = datagen::Corpus();
    ASSERT_TRUE(
        server_->RegisterSchema("s0", xsd::ToXsd(corpus[0].make())).ok());
    ASSERT_TRUE(
        server_->RegisterSchema("s1", xsd::ToXsd(corpus[1].make())).ok());
  }

  void TearDown() override { server_->Stop(); }

  Client Connect(milliseconds read_timeout = kProbeTimeout) {
    Result<Client> client =
        Client::Connect("127.0.0.1", server_->port(), read_timeout);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : Client();
  }

  void RunSeed(uint64_t seed, int iterations) {
    Random rng(seed);
    const std::vector<std::string> seeds = SeedFrames();
    for (int iter = 0; iter < iterations; ++iter) {
      const Mutation mutation = static_cast<Mutation>(
          rng.Uniform(static_cast<uint64_t>(Mutation::kCount)));
      const std::string bytes = Mutate(rng, seeds, mutation);
      // The chunked-valid case asserts a real answer arrives, and a cold
      // match legitimately takes longer than the stall-detection timeout —
      // give that client a generous read budget instead of weakening the
      // assertion.
      Client client = Connect(mutation == Mutation::kChunkedValid
                                  ? test::Scaled(milliseconds(5000))
                                  : kProbeTimeout);
      ASSERT_TRUE(client.connected());
      if (mutation == Mutation::kChunkedValid) {
        // Partial writes: the incremental decoder must reassemble the
        // frame from arbitrarily small chunks and answer normally.
        size_t sent = 0;
        while (sent < bytes.size()) {
          const size_t chunk = std::min(
              bytes.size() - sent,
              static_cast<size_t>(rng.UniformRange(1, 7)));
          ASSERT_TRUE(client.SendBytes(
                          std::string_view(bytes).substr(sent, chunk)).ok());
          sent += chunk;
        }
        std::string violation;
        const Outcome outcome = Probe(client, &violation,
                                      /*stop_after_first=*/true);
        EXPECT_EQ(outcome, Outcome::kResponses)
            << "seed " << seed << " iter " << iter
            << ": a chunked valid frame must be answered; " << violation;
      } else {
        if (!client.SendBytes(bytes).ok()) continue;  // server already closed
        std::string violation;
        const Outcome outcome = Probe(client, &violation);
        EXPECT_NE(outcome, Outcome::kViolation)
            << "seed " << seed << " iter " << iter << " mutation "
            << static_cast<int>(mutation) << ": " << violation;
      }
    }
    // The server survives the barrage: a fresh connection still works.
    Client verify = Connect();
    ASSERT_TRUE(verify.connected());
    Result<StatsResp> stats = verify.GetStats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->head.ok());
  }

  std::unique_ptr<core::MatchEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetFuzzTest, Seed1) { RunSeed(1, 40); }
TEST_F(NetFuzzTest, Seed2) { RunSeed(2, 40); }
TEST_F(NetFuzzTest, Seed3) { RunSeed(3, 40); }

}  // namespace
}  // namespace qmatch::net
