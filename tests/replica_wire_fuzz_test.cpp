// Seeded mutation fuzz over the replication wire messages (replica/wire.h)
// and the live subscribe handshake. The decoder contract under every
// mutation — truncation, bitflips, cross-type feeding, raw garbage,
// hostile counts, bogus epochs:
//
//  * Decode returns false for rejected bytes and never crashes, hangs or
//    over-allocates (a hostile count field must bounce off the remaining-
//    bytes check before any reserve);
//  * anything a decoder ACCEPTS re-encodes to a stable fixed point
//    (decode(encode(decode(x))) == decode(x)) — no half-read fields —
//    for every message type in tests/wire_messages.h;
//  * a live primary answers every subscribe — well-formed, stale-epoch,
//    future-epoch or undecodable — with a typed frame or a clean close,
//    and survives the whole barrage.
//
// Runs in tier-1 and again instrumented via `scripts/ci.sh fuzz|asan`
// (the `fuzz` label).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "datagen/corpus.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "replica/log.h"
#include "replica/primary.h"
#include "replica/wire.h"
#include "test_util.h"
#include "wire_messages.h"
#include "xsd/writer.h"

namespace qmatch::replica {
namespace {

using std::chrono::milliseconds;

/// Valid encodings of every replication message — the mutation pool.
std::vector<std::string> SeedPayloads() {
  std::vector<std::string> pool;
  SubscribeReq sub;
  sub.from_seq = 17;
  sub.epoch = 3;
  pool.push_back(Encode(sub));

  SchemaRec schema;
  schema.name = "purchase_order";
  schema.xsd_text = "<xs:schema xmlns:xs='urn:x'/>";
  pool.push_back(Encode(schema));

  RecordsMsg records;
  records.head_seq = 42;
  records.epoch = 2;
  for (uint64_t seq = 40; seq <= 42; ++seq) {
    LogRecord rec;
    rec.seq = seq;
    rec.type = static_cast<uint32_t>(seq % 3 + 1);
    rec.payload = std::string(static_cast<size_t>(seq), 'r');
    records.records.push_back(std::move(rec));
  }
  pool.push_back(Encode(records));

  SnapshotMsg snap;
  snap.next_seq = 9;
  snap.epoch = 5;
  snap.schemas.push_back(schema);
  snap.schemas.push_back(SchemaRec{"b", "<xs:schema/>"});
  snap.cache_payloads = {"cache-bytes-one", std::string(64, 'c')};
  pool.push_back(Encode(snap));
  return pool;
}

enum class Mutation { kTruncate, kBitflip, kGarbage, kSplice, kCount };

std::string Mutate(Random& rng, const std::vector<std::string>& pool,
                   Mutation mutation) {
  std::string bytes = pool[static_cast<size_t>(rng.Uniform(pool.size()))];
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
    case Mutation::kGarbage: {
      const size_t len = static_cast<size_t>(rng.UniformRange(0, 192));
      bytes.resize(len);
      for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
      break;
    }
    case Mutation::kSplice: {
      const std::string& other =
          pool[static_cast<size_t>(rng.Uniform(pool.size()))];
      const size_t cut = static_cast<size_t>(rng.Uniform(bytes.size()));
      const size_t skip = static_cast<size_t>(rng.Uniform(other.size()));
      bytes = bytes.substr(0, cut) + other.substr(skip);
      break;
    }
    case Mutation::kCount:
      break;
  }
  return bytes;
}

void RunDecoderSeed(uint64_t seed, int iterations) {
  Random rng(seed);
  const std::vector<std::string> pool = SeedPayloads();
  for (int iter = 0; iter < iterations; ++iter) {
    const Mutation mutation = static_cast<Mutation>(
        rng.Uniform(static_cast<uint64_t>(Mutation::kCount)));
    const std::string bytes = Mutate(rng, pool, mutation);
    const std::string trace = "seed " + std::to_string(seed) + " iter " +
                              std::to_string(iter) + " mutation " +
                              std::to_string(static_cast<int>(mutation));
    test::ExpectEveryDecoderRejectsOrFixes(bytes, trace);
  }
}

TEST(ReplicaWireFuzzTest, DecodersSurviveSeededMutationSeed1) {
  RunDecoderSeed(1, 120);
}
TEST(ReplicaWireFuzzTest, DecodersSurviveSeededMutationSeed2) {
  RunDecoderSeed(2, 120);
}
TEST(ReplicaWireFuzzTest, DecodersSurviveSeededMutationSeed3) {
  RunDecoderSeed(3, 120);
}

/// Overwrites the little-endian u32 at `offset` — the hostile-count patch.
void PatchU32(std::string* bytes, size_t offset, uint32_t value) {
  ASSERT_GE(bytes->size(), offset + 4);
  for (size_t i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

TEST(ReplicaWireFuzzTest, HostileCountsAreRejectedBeforeAnyReserve) {
  // Both message bodies put their first count field at byte 16 (two u64
  // headers). A count claiming 4 billion entries against a few dozen
  // remaining bytes must be rejected by arithmetic, not attempted.
  RecordsMsg records;
  records.head_seq = 7;
  records.epoch = 1;
  LogRecord rec;
  rec.seq = 7;
  rec.type = 1;
  rec.payload = "x";
  records.records.push_back(rec);
  for (const uint32_t hostile :
       {std::numeric_limits<uint32_t>::max(), 0x10000000u, 1000u}) {
    std::string bytes = Encode(records);
    PatchU32(&bytes, 16, hostile);
    RecordsMsg out;
    EXPECT_FALSE(Decode(bytes, &out))
        << "records count " << hostile << " was accepted";
  }

  SnapshotMsg snap;
  snap.next_seq = 3;
  snap.epoch = 1;
  snap.schemas.push_back(SchemaRec{"a", "<xs:schema/>"});
  snap.cache_payloads = {"c"};
  for (const uint32_t hostile :
       {std::numeric_limits<uint32_t>::max(), 0x10000000u, 1000u}) {
    std::string bytes = Encode(snap);
    PatchU32(&bytes, 16, hostile);
    SnapshotMsg out;
    EXPECT_FALSE(Decode(bytes, &out))
        << "snapshot schema count " << hostile << " was accepted";
  }

  // The later count (cache payload vector) too: an empty-schema
  // snapshot puts the cache count right after the first count at byte 20.
  SnapshotMsg lean;
  lean.next_seq = 3;
  lean.epoch = 1;
  lean.cache_payloads = {"c"};
  std::string bytes = Encode(lean);
  PatchU32(&bytes, 20, std::numeric_limits<uint32_t>::max());
  SnapshotMsg out;
  EXPECT_FALSE(Decode(bytes, &out))
      << "hostile cache-payload count was accepted";
}

/// The live handshake: every subscribe — stale, future, epoch-unaware or
/// undecodable — gets a typed frame or a clean close, never a crash.
TEST(ReplicaWireFuzzTest, BogusEpochSubscribesGetTypedAnswersNeverCrashes) {
  core::MatchEngine engine{core::MatchEngineOptions{}};
  ReplicationLog log(64);
  net::ServerOptions options;
  options.epoch = 5;  // room below for stale subscribers
  options.replica_heartbeat = milliseconds(50);
  AttachPrimary(&engine, &options, &log);
  net::Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  const auto& corpus = datagen::Corpus();
  ASSERT_TRUE(
      server.RegisterSchema("s0", xsd::ToXsd(corpus[0].make())).ok());

  const milliseconds read_timeout = test::Scaled(milliseconds(2000));
  // Ascending-then-hostile epoch schedule. The UINT64_MAX handshake fences
  // the primary (a higher epoch is a demotion trigger BY DESIGN), so every
  // later subscribe must be refused typed — both halves are asserted.
  const std::vector<uint64_t> epochs = {0,  5,  3,  1,
                                        std::numeric_limits<uint64_t>::max(),
                                        5,  0,  7};
  Random rng(0xEF0C5);
  for (const uint64_t epoch : epochs) {
    Result<net::Client> client =
        net::Client::Connect("127.0.0.1", server.port(), read_timeout);
    ASSERT_TRUE(client.ok());
    SubscribeReq req;
    req.from_seq = rng.Uniform(4);
    req.epoch = epoch;
    ASSERT_TRUE(client
                    ->SendBytes(net::EncodeFrame(
                        net::MsgType::kReplicaSubscribe,
                        Encode(req)))
                    .ok());
    Result<net::Frame> frame = client->ReadFrame();
    if (!frame.ok()) continue;  // clean close: acceptable refusal shape
    const auto type = static_cast<net::MsgType>(frame->type);
    if (type == net::MsgType::kErrorResp) {
      net::ResponseHead head;
      ASSERT_TRUE(net::Decode(frame->payload, &head))
          << "undecodable refusal for epoch " << epoch;
      EXPECT_FALSE(head.ok());
      EXPECT_NE(head.epoch, 0u);
    } else {
      // Accepted: the anchor must decode.
      ASSERT_TRUE(type == net::MsgType::kReplicaSnapshot ||
                  type == net::MsgType::kReplicaRecords)
          << "unexpected frame type " << frame->type;
      if (type == net::MsgType::kReplicaSnapshot) {
        SnapshotMsg snap;
        EXPECT_TRUE(Decode(frame->payload, &snap));
      } else {
        RecordsMsg records;
        EXPECT_TRUE(Decode(frame->payload, &records));
      }
    }
  }
  EXPECT_TRUE(server.fenced()) << "the max-epoch handshake never fenced";

  // Undecodable subscribe payloads: typed error or clean close.
  for (int i = 0; i < 24; ++i) {
    Result<net::Client> client =
        net::Client::Connect("127.0.0.1", server.port(), read_timeout);
    ASSERT_TRUE(client.ok());
    std::string junk(static_cast<size_t>(rng.UniformRange(0, 64)), '\0');
    for (char& c : junk) c = static_cast<char>(rng.Uniform(256));
    ASSERT_TRUE(
        client
            ->SendBytes(net::EncodeFrame(net::MsgType::kReplicaSubscribe, junk))
            .ok());
    Result<net::Frame> frame = client->ReadFrame();
    if (!frame.ok()) continue;
    ASSERT_EQ(frame->type, static_cast<uint32_t>(net::MsgType::kErrorResp));
    net::ResponseHead head;
    ASSERT_TRUE(net::Decode(frame->payload, &head));
    EXPECT_FALSE(head.ok());
  }

  // The server survives the barrage: a fresh connection still answers.
  Result<net::Client> verify =
      net::Client::Connect("127.0.0.1", server.port(), read_timeout);
  ASSERT_TRUE(verify.ok());
  Result<net::StatsResp> stats = verify->GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->head.ok());
  server.Stop();
}

}  // namespace
}  // namespace qmatch::replica
