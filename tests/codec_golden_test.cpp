// Golden byte vectors for the persist, replication and qmatchd protocol
// codecs (tests/wire_goldens.h): every encoder must reproduce its checked-in
// bytes exactly, and decoding those bytes and encoding the result again
// must be a fixed point. A failure here means stores on disk or a
// replication peer of the previous build would no longer read what this
// build writes, or a client of the previous build could no longer talk to
// this server.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/random.h"
#include "net/frame.h"
#include "persist/snapshot.h"
#include "replica/wire.h"
#include "wire_goldens.h"
#include "wire_messages.h"

namespace qmatch::test {
namespace {

/// Compares as hex so a mismatch prints readable bytes.
void ExpectBytes(const std::string& actual, std::string_view golden_hex) {
  EXPECT_EQ(BytesToHex(actual), BytesToHex(HexToBytes(golden_hex)));
}

TEST(CodecGoldenTest, CacheEntryPayload) {
  ExpectBytes(persist::Encode(GoldenCacheEntry()), kCacheEntryPayloadHex);
  persist::CacheEntryRec decoded;
  ASSERT_TRUE(persist::Decode(HexToBytes(kCacheEntryPayloadHex), &decoded));
  EXPECT_EQ(decoded, GoldenCacheEntry());
  ExpectBytes(persist::Encode(decoded), kCacheEntryPayloadHex);
}

TEST(CodecGoldenTest, FramedCacheRecord) {
  ExpectBytes(FramedCacheRecord(GoldenCacheEntry()), kCacheRecordHex);
  // A snapshot holding just this record decodes back to the same entry.
  const uint64_t fingerprint = 0xC0FFEE;
  const std::string snapshot =
      persist::EncodeSnapshot(persist::StoreState{}, fingerprint) +
      HexToBytes(kCacheRecordHex);
  persist::StoreState state;
  persist::LoadStats stats;
  ASSERT_TRUE(
      persist::DecodeSnapshot(snapshot, fingerprint, &state, &stats).ok());
  ASSERT_EQ(state.cache_entries.size(), 1u);
  EXPECT_EQ(state.cache_entries[0], GoldenCacheEntry());
  ExpectBytes(FramedCacheRecord(state.cache_entries[0]), kCacheRecordHex);
}

TEST(CodecGoldenTest, SchemaRecPayload) {
  ExpectBytes(replica::Encode(GoldenSchemaRec()), kSchemaRecPayloadHex);
  replica::SchemaRec decoded;
  ASSERT_TRUE(replica::Decode(HexToBytes(kSchemaRecPayloadHex), &decoded));
  EXPECT_EQ(decoded, GoldenSchemaRec());
  ExpectBytes(replica::Encode(decoded), kSchemaRecPayloadHex);
}

TEST(CodecGoldenTest, SubscribeReq) {
  ExpectBytes(replica::Encode(GoldenSubscribeReq()), kSubscribeReqHex);
  replica::SubscribeReq decoded;
  ASSERT_TRUE(replica::Decode(HexToBytes(kSubscribeReqHex), &decoded));
  EXPECT_EQ(decoded.from_seq, 7u);
  EXPECT_EQ(decoded.epoch, 3u);
  ExpectBytes(replica::Encode(decoded), kSubscribeReqHex);
}

TEST(CodecGoldenTest, RecordsMsg) {
  ExpectBytes(replica::Encode(GoldenRecordsMsg()), kRecordsMsgHex);
  replica::RecordsMsg decoded;
  ASSERT_TRUE(replica::Decode(HexToBytes(kRecordsMsgHex), &decoded));
  EXPECT_EQ(decoded.head_seq, 42u);
  EXPECT_EQ(decoded.epoch, 3u);
  ASSERT_EQ(decoded.records.size(), 2u);
  EXPECT_EQ(decoded.records[0].seq, 41u);
  EXPECT_EQ(decoded.records[0].type, 1u);
  EXPECT_EQ(decoded.records[0].payload, "abc");
  EXPECT_EQ(decoded.records[1].payload, "");
  ExpectBytes(replica::Encode(decoded), kRecordsMsgHex);
}

TEST(CodecGoldenTest, SnapshotMsg) {
  ExpectBytes(replica::Encode(GoldenSnapshotMsg()), kSnapshotMsgHex);
  replica::SnapshotMsg decoded;
  ASSERT_TRUE(replica::Decode(HexToBytes(kSnapshotMsgHex), &decoded));
  EXPECT_EQ(decoded.next_seq, 43u);
  EXPECT_EQ(decoded.epoch, 3u);
  ASSERT_EQ(decoded.schemas.size(), 1u);
  EXPECT_EQ(decoded.schemas[0], GoldenSchemaRec());
  ASSERT_EQ(decoded.cache_payloads.size(), 1u);
  ExpectBytes(decoded.cache_payloads[0], kCacheEntryPayloadHex);
  ExpectBytes(replica::Encode(decoded), kSnapshotMsgHex);
}

/// Encodes `value` to its golden bytes; the golden bytes decode back to
/// `value`, and encoding that again reproduces them.
template <typename Msg>
void ExpectGolden(const Msg& value, std::string_view golden_hex) {
  ExpectBytes(persist::Encode(value), golden_hex);
  Msg decoded;
  ASSERT_TRUE(persist::Decode(HexToBytes(golden_hex), &decoded));
  EXPECT_EQ(decoded, value);
  ExpectBytes(persist::Encode(decoded), golden_hex);
}

TEST(CodecGoldenTest, NetRequests) {
  ExpectGolden(GoldenSubmitSchemaReq(), kSubmitSchemaReqHex);
  ExpectGolden(GoldenMatchPairReq(), kMatchPairReqHex);
  ExpectGolden(GoldenMatchCorpusReq(), kMatchCorpusReqHex);
}

TEST(CodecGoldenTest, NetErrorResponse) {
  ExpectGolden(GoldenErrorHead(), kErrorRespHex);
  net::ResponseHead head;
  ASSERT_TRUE(net::Decode(HexToBytes(kErrorRespHex), &head));
  EXPECT_EQ(head.status_code(), StatusCode::kOverloaded);
  EXPECT_EQ(head.message, "engine shed this request");
  EXPECT_EQ(head.epoch, 3u);
}

TEST(CodecGoldenTest, NetResponses) {
  ExpectGolden(GoldenSubmitSchemaResp(), kSubmitSchemaRespHex);
  ExpectGolden(GoldenMatchPairResp(), kMatchPairRespHex);
  ExpectGolden(GoldenMatchCorpusResp(), kMatchCorpusRespHex);
  ExpectGolden(GoldenStatsResp(), kStatsRespHex);
  ExpectGolden(GoldenMetricsResp(), kMetricsRespHex);
  ExpectGolden(GoldenHealthResp(), kHealthRespHex);
  ExpectGolden(GoldenRoleResp(), kRoleRespHex);
}

TEST(CodecGoldenTest, NetSubmitSchemaErrorCarriesNoBody) {
  ExpectGolden(GoldenSubmitSchemaErrorResp(), kSubmitSchemaErrorRespHex);
  // An error head is the whole payload: it is byte for byte the bare
  // error response of the same head.
  ExpectBytes(net::Encode(GoldenSubmitSchemaErrorResp().head),
              kSubmitSchemaErrorRespHex);
}

TEST(CodecGoldenTest, NetFrame) {
  ExpectBytes(net::EncodeFrame(net::MsgType::kMatchPair,
                               HexToBytes(kMatchPairReqHex)),
              kMatchPairFrameHex);
  const std::string bytes = HexToBytes(kMatchPairFrameHex);
  net::Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(net::DecodeFrame(bytes, &frame, &consumed),
            net::FrameDecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, static_cast<uint32_t>(net::MsgType::kMatchPair));
  ExpectBytes(frame.payload, kMatchPairReqHex);
}

// --- value-level round trip over every message type -------------------------

template <class T>
class WireRoundTripTest : public ::testing::Test {};
TYPED_TEST_SUITE(WireRoundTripTest, WireMessages::Gtest);

/// Decode(Encode(v)) == v for seeded values drawn through each message's
/// Fields list (empty strings and vectors included), and the decoded value
/// re-encodes to the same bytes, so doubles keep their bit patterns.
TYPED_TEST(WireRoundTripTest, DecodeOfEncodeIsTheValue) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    const TypeParam value = RandomMessage<TypeParam>(rng);
    const std::string bytes = persist::Encode(value);
    TypeParam decoded;
    ASSERT_TRUE(persist::Decode(bytes, &decoded)) << "seed " << seed;
    EXPECT_EQ(decoded, value) << "seed " << seed;
    EXPECT_EQ(persist::Encode(decoded), bytes) << "seed " << seed;
  }
  const TypeParam empty{};
  TypeParam decoded;
  ASSERT_TRUE(persist::Decode(persist::Encode(empty), &decoded));
  EXPECT_EQ(decoded, empty);
}

/// Every proper prefix of an encoding, and the encoding plus one byte, is
/// rejected: decode is bounds-checked and refuses trailing bytes.
TYPED_TEST(WireRoundTripTest, TruncationsAndTrailingBytesAreRejected) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Random rng(seed);
    const std::string bytes =
        persist::Encode(RandomMessage<TypeParam>(rng));
    for (size_t size = 0; size < bytes.size(); ++size) {
      TypeParam out;
      EXPECT_FALSE(persist::Decode(std::string_view(bytes).substr(0, size),
                                   &out))
          << "seed " << seed << " prefix " << size;
    }
    TypeParam out;
    EXPECT_FALSE(persist::Decode(bytes + '\0', &out)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace qmatch::test
