// Golden byte vectors of the persist, replication and qmatchd protocol
// codecs, as lowercase
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

#include "net/frame.h"
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

/// A cache entry framed as the journal and snapshot store it.
inline std::string FramedCacheRecord(const persist::CacheEntryRec& entry) {
  return persist::EncodeFrame(
      static_cast<uint32_t>(persist::RecordType::kCacheEntry),
      persist::Encode(entry));
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
      persist::Encode(GoldenCacheEntry()));
  return msg;
}

// --- qmatchd protocol payloads (net/frame.h) -------------------------------

inline net::SubmitSchemaReq GoldenSubmitSchemaReq() {
  return net::SubmitSchemaReq{"PO1", "<xs:schema/>"};
}

inline net::MatchPairReq GoldenMatchPairReq() {
  return net::MatchPairReq{"PO1", "PO2", 250};
}

inline net::MatchCorpusReq GoldenMatchCorpusReq() {
  return net::MatchCorpusReq{"PO1", 1000};
}

/// An OK head from a server at epoch 3.
inline net::ResponseHead GoldenOkHead() {
  net::ResponseHead head;
  head.epoch = 3;
  return head;
}

/// The bare head of a kErrorResp frame: a shed request at epoch 3.
inline net::ResponseHead GoldenErrorHead() {
  net::ResponseHead head = net::ResponseHead::FromStatus(
      Status::Overloaded("engine shed this request"));
  head.epoch = 3;
  return head;
}

inline net::SubmitSchemaResp GoldenSubmitSchemaResp() {
  net::SubmitSchemaResp resp;
  resp.head = GoldenOkHead();
  resp.fingerprint = 0x0123456789ABCDEFULL;
  resp.node_count = 42;
  return resp;
}

/// A rejected submit: the body is absent from the bytes, so only the head
/// is set.
inline net::SubmitSchemaResp GoldenSubmitSchemaErrorResp() {
  net::SubmitSchemaResp resp;
  resp.head = net::ResponseHead::FromStatus(Status::ParseError("bad xsd"));
  resp.head.epoch = 3;
  return resp;
}

inline net::MatchPairResp GoldenMatchPairResp() {
  net::MatchPairResp resp;
  resp.head = GoldenOkHead();
  resp.algorithm = "QMatch";
  resp.mode = 1;
  resp.schema_qom = 0.931688888889;
  resp.completed_rows = 10;
  resp.total_rows = 12;
  resp.correspondences.push_back(
      {"PO/Address/City", "PurchaseOrder/City", 0.75});
  resp.correspondences.push_back({"PO", "PurchaseOrder", 0.5});
  return resp;
}

inline net::MatchCorpusResp GoldenMatchCorpusResp() {
  net::MatchCorpusResp resp;
  resp.head = GoldenOkHead();
  resp.entries.push_back({"PO2", 0, 0.931688888889, 10});
  resp.entries.push_back({"Broken", 4, 0.0, 0});
  return resp;
}

inline net::StatsResp GoldenStatsResp() {
  net::StatsResp resp;
  resp.head = GoldenOkHead();
  resp.schemas = 34;
  resp.cache_hits = 100;
  resp.cache_misses = 7;
  resp.cache_entries = 90;
  resp.admission_shed = 2;
  resp.requests_total = 150;
  resp.connections_active = 3;
  resp.pressure = 0.25;
  return resp;
}

inline net::MetricsResp GoldenMetricsResp() {
  net::MetricsResp resp;
  resp.head = GoldenOkHead();
  resp.prometheus_text = "# TYPE x counter\nx 1\n";
  return resp;
}

inline net::HealthResp GoldenHealthResp() {
  net::HealthResp resp;
  resp.head = GoldenOkHead();
  resp.role = 1;
  return resp;
}

inline net::RoleResp GoldenRoleResp() {
  net::RoleResp resp;
  resp.head = GoldenOkHead();
  resp.role = 2;
  resp.ready = 1;
  resp.applied_seq = 40;
  resp.head_seq = 42;
  resp.lag_records = 2;
  return resp;
}

/// persist::Encode(GoldenCacheEntry()).
inline constexpr std::string_view kCacheEntryPayloadHex =
    "efcdab89674523011032547698badcfe78695a4b3c2d1e0f06000000514d6174"
    "636808657a3765d0ed3f020000000f000000504f2f416464726573732f436974"
    "791200000050757263686173654f726465722f43697479000000000000e83f02"
    "000000504f0d00000050757263686173654f72646572000000000000e03f";

/// FramedCacheRecord(GoldenCacheEntry()): the framed record,
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

/// replica::Encode(GoldenSchemaRec()).
inline constexpr std::string_view kSchemaRecPayloadHex =
    "03000000504f310c0000003c78733a736368656d612f3e";

/// replica::Encode(GoldenSubscribeReq()).
inline constexpr std::string_view kSubscribeReqHex =
    "07000000000000000300000000000000";

/// replica::Encode(GoldenRecordsMsg()).
inline constexpr std::string_view kRecordsMsgHex =
    "2a00000000000000030000000000000002000000290000000000000001000000"
    "030000006162632a000000000000000300000000000000";

/// replica::Encode(GoldenSnapshotMsg()). Before type 2 was
/// retired the message carried four more zero bytes at the end: the
/// (always empty) corpus payload count.
inline constexpr std::string_view kSnapshotMsgHex =
    "2b0000000000000003000000000000000100000003000000504f310c0000003c"
    "78733a736368656d612f3e010000007e000000efcdab89674523011032547698"
    "badcfe78695a4b3c2d1e0f06000000514d6174636808657a3765d0ed3f020000"
    "000f000000504f2f416464726573732f43697479120000005075726368617365"
    "4f726465722f43697479000000000000e83f02000000504f0d00000050757263"
    "686173654f72646572000000000000e03f";

/// net::Encode(GoldenSubmitSchemaReq()).
inline constexpr std::string_view kSubmitSchemaReqHex =
    "03000000504f310c0000003c78733a736368656d612f3e";

/// net::Encode(GoldenMatchPairReq()).
inline constexpr std::string_view kMatchPairReqHex =
    "03000000504f3103000000504f32fa00000000000000";

/// net::Encode(GoldenMatchCorpusReq()).
inline constexpr std::string_view kMatchCorpusReqHex =
    "03000000504f31e803000000000000";

/// net::Encode(GoldenErrorHead()): a kErrorResp payload.
inline constexpr std::string_view kErrorRespHex =
    "0c00000018000000656e67696e65207368656420746869732072657175657374"
    "0300000000000000";

/// net::Encode(GoldenSubmitSchemaResp()).
inline constexpr std::string_view kSubmitSchemaRespHex =
    "00000000000000000300000000000000efcdab89674523012a00000000000000";

/// net::Encode(GoldenSubmitSchemaErrorResp()): the head
/// alone, no body.
inline constexpr std::string_view kSubmitSchemaErrorRespHex =
    "0400000007000000626164207873640300000000000000";

/// net::Encode(GoldenMatchPairResp()).
inline constexpr std::string_view kMatchPairRespHex =
    "0000000000000000030000000000000006000000514d61746368010000000865"
    "7a3765d0ed3f0a000000000000000c00000000000000020000000f000000504f"
    "2f416464726573732f436974791200000050757263686173654f726465722f43"
    "697479000000000000e83f02000000504f0d00000050757263686173654f7264"
    "6572000000000000e03f";

/// net::Encode(GoldenMatchCorpusResp()).
inline constexpr std::string_view kMatchCorpusRespHex =
    "000000000000000003000000000000000200000003000000504f320000000008"
    "657a3765d0ed3f0a000000000000000600000042726f6b656e04000000000000"
    "00000000000000000000000000";

/// net::Encode(GoldenStatsResp()).
inline constexpr std::string_view kStatsRespHex =
    "0000000000000000030000000000000022000000000000006400000000000000"
    "07000000000000005a0000000000000002000000000000009600000000000000"
    "0300000000000000000000000000d03f";

/// net::Encode(GoldenMetricsResp()).
inline constexpr std::string_view kMetricsRespHex =
    "0000000000000000030000000000000015000000232054595045207820636f75"
    "6e7465720a7820310a";

/// net::Encode(GoldenHealthResp()).
inline constexpr std::string_view kHealthRespHex =
    "0000000000000000030000000000000001000000";

/// net::Encode(GoldenRoleResp()).
inline constexpr std::string_view kRoleRespHex =
    "0000000000000000030000000000000002000000010000002800000000000000"
    "2a000000000000000200000000000000";

/// net::EncodeFrame(kMatchPair, <kMatchPairReqHex bytes>): one whole
/// frame, [type 2][length][payload][crc32].
inline constexpr std::string_view kMatchPairFrameHex =
    "020000001600000003000000504f3103000000504f32fa00000000000000a176"
    "b5ec";

}  // namespace qmatch::test

#endif  // QMATCH_TESTS_WIRE_GOLDENS_H_
