// Golden byte vectors for the persist and replication codecs
// (tests/wire_goldens.h): every encoder must reproduce its checked-in
// bytes exactly, and decoding those bytes and encoding the result again
// must be a fixed point. A failure here means stores on disk or a
// replication peer of the previous build would no longer read what this
// build writes.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "persist/snapshot.h"
#include "replica/wire.h"
#include "wire_goldens.h"

namespace qmatch::test {
namespace {

/// Compares as hex so a mismatch prints readable bytes.
void ExpectBytes(const std::string& actual, std::string_view golden_hex) {
  EXPECT_EQ(BytesToHex(actual), BytesToHex(HexToBytes(golden_hex)));
}

TEST(CodecGoldenTest, CacheEntryPayload) {
  ExpectBytes(persist::EncodeCacheRecordPayload(GoldenCacheEntry()),
              kCacheEntryPayloadHex);
  persist::CacheEntryRec decoded;
  ASSERT_TRUE(persist::DecodeCacheRecordPayload(
      HexToBytes(kCacheEntryPayloadHex), &decoded));
  EXPECT_EQ(decoded, GoldenCacheEntry());
  ExpectBytes(persist::EncodeCacheRecordPayload(decoded),
              kCacheEntryPayloadHex);
}

TEST(CodecGoldenTest, FramedCacheRecord) {
  ExpectBytes(persist::EncodeCacheRecord(GoldenCacheEntry()), kCacheRecordHex);
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
  ExpectBytes(persist::EncodeCacheRecord(state.cache_entries[0]),
              kCacheRecordHex);
}

TEST(CodecGoldenTest, SchemaRecPayload) {
  ExpectBytes(replica::EncodeSchemaRecPayload(GoldenSchemaRec()),
              kSchemaRecPayloadHex);
  replica::SchemaRec decoded;
  ASSERT_TRUE(replica::DecodeSchemaRecPayload(HexToBytes(kSchemaRecPayloadHex),
                                              &decoded));
  EXPECT_EQ(decoded, GoldenSchemaRec());
  ExpectBytes(replica::EncodeSchemaRecPayload(decoded), kSchemaRecPayloadHex);
}

TEST(CodecGoldenTest, SubscribeReq) {
  ExpectBytes(replica::EncodeSubscribeReq(GoldenSubscribeReq()),
              kSubscribeReqHex);
  replica::SubscribeReq decoded;
  ASSERT_TRUE(
      replica::DecodeSubscribeReq(HexToBytes(kSubscribeReqHex), &decoded));
  EXPECT_EQ(decoded.from_seq, 7u);
  EXPECT_EQ(decoded.epoch, 3u);
  ExpectBytes(replica::EncodeSubscribeReq(decoded), kSubscribeReqHex);
}

TEST(CodecGoldenTest, RecordsMsg) {
  ExpectBytes(replica::EncodeRecordsMsg(GoldenRecordsMsg()), kRecordsMsgHex);
  replica::RecordsMsg decoded;
  ASSERT_TRUE(replica::DecodeRecordsMsg(HexToBytes(kRecordsMsgHex), &decoded));
  EXPECT_EQ(decoded.head_seq, 42u);
  EXPECT_EQ(decoded.epoch, 3u);
  ASSERT_EQ(decoded.records.size(), 2u);
  EXPECT_EQ(decoded.records[0].seq, 41u);
  EXPECT_EQ(decoded.records[0].type, 1u);
  EXPECT_EQ(decoded.records[0].payload, "abc");
  EXPECT_EQ(decoded.records[1].payload, "");
  ExpectBytes(replica::EncodeRecordsMsg(decoded), kRecordsMsgHex);
}

TEST(CodecGoldenTest, SnapshotMsg) {
  ExpectBytes(replica::EncodeSnapshotMsg(GoldenSnapshotMsg()),
              kSnapshotMsgHex);
  replica::SnapshotMsg decoded;
  ASSERT_TRUE(
      replica::DecodeSnapshotMsg(HexToBytes(kSnapshotMsgHex), &decoded));
  EXPECT_EQ(decoded.next_seq, 43u);
  EXPECT_EQ(decoded.epoch, 3u);
  ASSERT_EQ(decoded.schemas.size(), 1u);
  EXPECT_EQ(decoded.schemas[0], GoldenSchemaRec());
  ASSERT_EQ(decoded.cache_payloads.size(), 1u);
  ExpectBytes(decoded.cache_payloads[0], kCacheEntryPayloadHex);
  ExpectBytes(replica::EncodeSnapshotMsg(decoded), kSnapshotMsgHex);
}

}  // namespace
}  // namespace qmatch::test
