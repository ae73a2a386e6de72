// Golden byte vectors of the persist and replication codecs, as lowercase
// hex. Each vector was produced by the encoders of the build that
// introduced it and is checked byte for byte by codec_golden_test.cpp, so
// a codec change that moves a single byte fails loudly instead of
// silently breaking stores on disk or a replication peer.
//
// The values behind the vectors are built by the Golden*() helpers below;
// a test encodes them and compares with the hex.

#ifndef QMATCH_TESTS_WIRE_GOLDENS_H_
#define QMATCH_TESTS_WIRE_GOLDENS_H_

#include <string>
#include <string_view>

#include "persist/snapshot.h"
#include "replica/wire.h"

namespace qmatch::test {

/// Decodes lowercase/uppercase hex (whitespace ignored) into raw bytes.
inline std::string HexToBytes(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  int high = -1;
  for (char c : hex) {
    const int value = nibble(c);
    if (value < 0) continue;
    if (high < 0) {
      high = value;
    } else {
      out.push_back(static_cast<char>((high << 4) | value));
      high = -1;
    }
  }
  return out;
}

inline std::string BytesToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

inline persist::CacheEntryRec GoldenCacheEntry() {
  persist::CacheEntryRec rec;
  rec.source_fp = 0x0123456789ABCDEFULL;
  rec.target_fp = 0xFEDCBA9876543210ULL;
  rec.config_hash = 0x0F1E2D3C4B5A6978ULL;
  rec.algorithm = "QMatch";
  rec.schema_qom = 0.931688888889;
  rec.correspondences.push_back(
      {"PO/Address/City", "PurchaseOrder/City", 0.75});
  rec.correspondences.push_back({"PO", "PurchaseOrder", 0.5});
  return rec;
}

inline replica::SchemaRec GoldenSchemaRec() {
  return replica::SchemaRec{"PO1", "<xs:schema/>"};
}

inline replica::SubscribeReq GoldenSubscribeReq() {
  replica::SubscribeReq req;
  req.from_seq = 7;
  req.epoch = 3;
  return req;
}

inline replica::RecordsMsg GoldenRecordsMsg() {
  replica::RecordsMsg msg;
  msg.head_seq = 42;
  msg.epoch = 3;
  msg.records.push_back(replica::LogRecord{41, 1, "abc"});
  msg.records.push_back(replica::LogRecord{42, 3, ""});
  return msg;
}

inline replica::SnapshotMsg GoldenSnapshotMsg() {
  replica::SnapshotMsg msg;
  msg.next_seq = 43;
  msg.epoch = 3;
  msg.schemas.push_back(GoldenSchemaRec());
  msg.cache_payloads.push_back(
      persist::EncodeCacheRecordPayload(GoldenCacheEntry()));
  return msg;
}

/// persist::EncodeCacheRecordPayload(GoldenCacheEntry()).
inline constexpr std::string_view kCacheEntryPayloadHex =
    "efcdab89674523011032547698badcfe78695a4b3c2d1e0f06000000514d6174"
    "636808657a3765d0ed3f020000000f000000504f2f416464726573732f436974"
    "791200000050757263686173654f726465722f43697479000000000000e83f02"
    "000000504f0d00000050757263686173654f72646572000000000000e03f";

/// persist::EncodeCacheRecord(GoldenCacheEntry()): the framed record,
/// [type 1][length][payload][crc32].
inline constexpr std::string_view kCacheRecordHex =
    "010000007e000000efcdab89674523011032547698badcfe78695a4b3c2d1e0f"
    "06000000514d6174636808657a3765d0ed3f020000000f000000504f2f416464"
    "726573732f436974791200000050757263686173654f726465722f4369747900"
    "0000000000e83f02000000504f0d00000050757263686173654f726465720000"
    "00000000e03f478917bc";

/// A framed record of the retired type 2 (the file-loading corpus index:
/// path "data/schemas/PO1.xsd", schema fingerprint 0xFEED1, 2 breaker
/// failures), as stores written before its retirement hold it. Valid CRC;
/// today's loader must skip and count it.
inline constexpr std::string_view kRetiredCorpusRecordHex =
    "020000002400000014000000646174612f736368656d61732f504f312e787364"
    "d1ee0f00000000000200000095f7f712";

/// replica::EncodeSchemaRecPayload(GoldenSchemaRec()).
inline constexpr std::string_view kSchemaRecPayloadHex =
    "03000000504f310c0000003c78733a736368656d612f3e";

/// replica::EncodeSubscribeReq(GoldenSubscribeReq()).
inline constexpr std::string_view kSubscribeReqHex =
    "07000000000000000300000000000000";

/// replica::EncodeRecordsMsg(GoldenRecordsMsg()).
inline constexpr std::string_view kRecordsMsgHex =
    "2a00000000000000030000000000000002000000290000000000000001000000"
    "030000006162632a000000000000000300000000000000";

/// replica::EncodeSnapshotMsg(GoldenSnapshotMsg()). Before type 2 was
/// retired the message carried four more zero bytes at the end: the
/// (always empty) corpus payload count.
inline constexpr std::string_view kSnapshotMsgHex =
    "2b0000000000000003000000000000000100000003000000504f310c0000003c"
    "78733a736368656d612f3e010000007e000000efcdab89674523011032547698"
    "badcfe78695a4b3c2d1e0f06000000514d6174636808657a3765d0ed3f020000"
    "000f000000504f2f416464726573732f43697479120000005075726368617365"
    "4f726465722f43697479000000000000e83f02000000504f0d00000050757263"
    "686173654f72646572000000000000e03f";

}  // namespace qmatch::test

#endif  // QMATCH_TESTS_WIRE_GOLDENS_H_
