#ifndef QMATCH_NET_FRAME_H_
#define QMATCH_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "persist/snapshot.h"
#include "persist/wire.h"

namespace qmatch::net {

/// The qmatchd wire protocol (DESIGN.md §14): a stream of self-delimiting
/// frames in the persist layer's record framing (persist/wire.h) — the
/// same encoder and incremental parser the journal uses, with a CRC32
/// trailer over everything the length field governs and a hostile-length
/// pre-check so a lying peer can never make the server allocate from an
/// unvalidated length.
///
///   frame:
///     [4]  u32 message type  (MsgType)
///     [4]  u32 payload length (<= kMaxFramePayload, checked BEFORE any
///          allocation — the fuzz contract inherited from persist)
///     [n]  payload            (the message's Fields list)
///     [4]  CRC32 of type + length + payload
///
/// Requests occupy the low type space; a response carries its request's
/// type with kResponseBit set, so a pipelined client can pair them without
/// sequence numbers (responses are written in request order per
/// connection). kErrorResp answers bytes that never became a decodable
/// request (bad CRC, bogus length, unknown type, undecodable payload) —
/// always a typed frame, never a silently dropped connection.
///
/// Every response payload begins with a ResponseHead (u32 StatusCode +
/// message + epoch). Each payload's layout is its struct's one Fields list
/// below; persist::Encode / persist::Decode turn it into bytes and back.
/// Doubles travel as IEEE-754 bit patterns via Encoder::PutDouble, so a
/// QoM read over the wire is bit-identical to the in-process value — the
/// serving acceptance criterion, same as warm start's.

enum class MsgType : uint32_t {
  kSubmitSchema = 1,
  kMatchPair = 2,
  kMatchCorpus = 3,
  kGetStats = 4,
  kGetMetrics = 5,
  /// Liveness probe: answered inline on the loop by every role, even while
  /// draining — if the process can speak the protocol, it answers.
  kHealth = 6,
  /// Role + readiness probe: current role, replication positions and the
  /// readiness verdict /readyz would give (DESIGN.md §15).
  kRole = 7,
  /// Standby -> primary: subscribe to the replication stream
  /// (replica::SubscribeReq payload). The connection becomes push-mode:
  /// the primary answers with kReplicaSnapshot and/or kReplicaRecords
  /// frames for its remaining lifetime — no further requests are paired.
  kReplicaSubscribe = 8,

  kSubmitSchemaResp = 0x101,
  kMatchPairResp = 0x102,
  kMatchCorpusResp = 0x103,
  kGetStatsResp = 0x104,
  kGetMetricsResp = 0x105,
  kHealthResp = 0x106,
  kRoleResp = 0x107,
  /// Pushed batch of replication log records (replica::RecordsMsg); an
  /// empty batch is a heartbeat carrying the primary's head sequence.
  kReplicaRecords = 0x108,
  /// Full-state anchor for a subscriber too far behind the log
  /// (replica::SnapshotMsg).
  kReplicaSnapshot = 0x109,
  /// Typed answer to a frame that never became a decodable request.
  kErrorResp = 0x1FF,
};

/// OR-ed into a request type to form its response type.
inline constexpr uint32_t kResponseBit = 0x100;

/// Framing sanity cap, mirroring persist::kMaxPayloadBytes: the server
/// never writes a larger payload, so a bigger length field is hostile by
/// definition and is rejected before any buffer grows to hold it.
inline constexpr uint32_t kMaxFramePayload = 1u << 24;  // 16 MiB

using persist::Decode;
using persist::Encode;
using persist::EncodeFrame;
using persist::FrameDecodeResult;
using persist::FrameDecodeResultName;

inline std::string EncodeFrame(MsgType type, std::string_view payload) {
  return EncodeFrame(static_cast<uint32_t>(type), payload);
}

struct Frame {
  uint32_t type = 0;
  std::string payload;
};

/// Attempts to decode the first frame of `buffer`. On kFrame, `*out` holds
/// the type + payload and `*consumed` the bytes to drop from the buffer;
/// on kNeedMore nothing is consumed; on kBadLength/kBadCrc the connection
/// should answer a typed error frame and close (the stream is desynced).
inline FrameDecodeResult DecodeFrame(std::string_view buffer, Frame* out,
                                     size_t* consumed) {
  persist::FrameView view;
  const FrameDecodeResult result =
      persist::ParseFrame(buffer, kMaxFramePayload, &view, consumed);
  if (result == FrameDecodeResult::kFrame) {
    out->type = view.type;
    out->payload.assign(view.payload);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Response payloads
// ---------------------------------------------------------------------------

/// First fields of every response payload: the request's typed outcome.
/// `code` is a StatusCode; anything but kOk means the body is absent. A
/// kErrorResp frame carries a bare ResponseHead.
struct ResponseHead {
  uint32_t code = 0;
  std::string message;
  /// The answering server's fencing epoch (DESIGN.md §16). Every response
  /// — success, typed error, kRole, kHealth — carries the responder's OWN
  /// epoch, so clients and peers learn about promotions from any frame.
  /// 0 means "epoch-unaware" (a pre-epoch peer or an unset head).
  uint64_t epoch = 0;

  bool ok() const { return code == 0; }
  StatusCode status_code() const { return static_cast<StatusCode>(code); }
  Status ToStatus() const {
    return ok() ? Status::OK() : Status(status_code(), message);
  }
  static ResponseHead FromStatus(const Status& status) {
    return ResponseHead{static_cast<uint32_t>(status.code()),
                        status.message()};
  }
  friend bool operator==(const ResponseHead&, const ResponseHead&) = default;
};

template <class IO>
void Fields(IO& io, ResponseHead& m) {
  io(m.code, m.message, m.epoch);
}

struct SubmitSchemaResp {
  ResponseHead head;
  uint64_t fingerprint = 0;
  uint64_t node_count = 0;

  friend bool operator==(const SubmitSchemaResp&,
                         const SubmitSchemaResp&) = default;
};

template <class IO>
void Fields(IO& io, SubmitSchemaResp& m) {
  io(m.head);
  // The body rides only on an OK head; decode reads the head first.
  if (m.head.ok()) io(m.fingerprint, m.node_count);
}

/// One correspondence by endpoint path; `score` crosses the wire as its
/// exact bit pattern. The same struct, and bytes, as a journaled one.
using WireCorrespondence = persist::CorrespondenceRec;

struct MatchPairResp {
  ResponseHead head;
  std::string algorithm;
  uint32_t mode = 0;  ///< MatchMode the result was computed at
  double schema_qom = 0.0;
  uint64_t completed_rows = 0;
  uint64_t total_rows = 0;
  std::vector<WireCorrespondence> correspondences;

  friend bool operator==(const MatchPairResp&, const MatchPairResp&) = default;
};

template <class IO>
void Fields(IO& io, MatchPairResp& m) {
  io(m.head, m.algorithm, m.mode, m.schema_qom, m.completed_rows, m.total_rows,
     m.correspondences);
}

/// Per-candidate summary row of a corpus match.
struct WireCorpusEntry {
  std::string name;
  uint32_t code = 0;  ///< StatusCode of this candidate's match
  double schema_qom = 0.0;
  uint64_t correspondences = 0;

  friend bool operator==(const WireCorpusEntry&,
                         const WireCorpusEntry&) = default;
};

template <class IO>
void Fields(IO& io, WireCorpusEntry& m) {
  io(m.name, m.code, m.schema_qom, m.correspondences);
}

struct MatchCorpusResp {
  ResponseHead head;
  std::vector<WireCorpusEntry> entries;

  friend bool operator==(const MatchCorpusResp&,
                         const MatchCorpusResp&) = default;
};

template <class IO>
void Fields(IO& io, MatchCorpusResp& m) {
  io(m.head, m.entries);
}

struct StatsResp {
  ResponseHead head;
  uint64_t schemas = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t admission_shed = 0;
  uint64_t requests_total = 0;
  uint64_t connections_active = 0;
  double pressure = 0.0;

  friend bool operator==(const StatsResp&, const StatsResp&) = default;
};

template <class IO>
void Fields(IO& io, StatsResp& m) {
  io(m.head, m.schemas, m.cache_hits, m.cache_misses, m.cache_entries,
     m.admission_shed, m.requests_total, m.connections_active, m.pressure);
}

struct MetricsResp {
  ResponseHead head;
  std::string prometheus_text;

  friend bool operator==(const MetricsResp&, const MetricsResp&) = default;
};

template <class IO>
void Fields(IO& io, MetricsResp& m) {
  io(m.head, m.prometheus_text);
}

/// Liveness: the serving role is informational here — a draining server
/// still answers Health OK (it is alive) while Role says not-ready.
struct HealthResp {
  ResponseHead head;
  uint32_t role = 0;  ///< net::Server Role enum value

  friend bool operator==(const HealthResp&, const HealthResp&) = default;
};

template <class IO>
void Fields(IO& io, HealthResp& m) {
  io(m.head, m.role);
}

/// Role + replication positions — the typed twin of HTTP /readyz.
struct RoleResp {
  ResponseHead head;
  uint32_t role = 0;      ///< net::Server Role enum value
  /// The /readyz verdict: 1 = serving traffic is safe. A flag: u32 on the
  /// wire, decoded to 0/1.
  uint8_t ready = 0;
  uint64_t applied_seq = 0;  ///< standby: last replication record applied
  uint64_t head_seq = 0;     ///< standby: primary head as last heard
  uint64_t lag_records = 0;  ///< head_seq - applied_seq (0 on a primary)

  friend bool operator==(const RoleResp&, const RoleResp&) = default;
};

template <class IO>
void Fields(IO& io, RoleResp& m) {
  io(m.head, m.role, m.ready, m.applied_seq, m.head_seq, m.lag_records);
}

// ---------------------------------------------------------------------------
// Request payloads. Each request names its frame type and its response
// struct, so a client call is typed by the request alone.
// ---------------------------------------------------------------------------

/// Registers (or replaces) a named schema parsed from XSD text.
struct SubmitSchemaReq {
  static constexpr MsgType kType = MsgType::kSubmitSchema;
  using Response = SubmitSchemaResp;
  std::string name;
  std::string xsd_text;

  friend bool operator==(const SubmitSchemaReq&,
                         const SubmitSchemaReq&) = default;
};

template <class IO>
void Fields(IO& io, SubmitSchemaReq& m) {
  io(m.name, m.xsd_text);
}

/// Matches two previously submitted schemas. `deadline_ms` = 0 leaves the
/// server's default in force; otherwise it is clamped to the server's
/// configured maximum and wired into the request's ExecControl.
struct MatchPairReq {
  static constexpr MsgType kType = MsgType::kMatchPair;
  using Response = MatchPairResp;
  std::string source;
  std::string target;
  uint64_t deadline_ms = 0;

  friend bool operator==(const MatchPairReq&, const MatchPairReq&) = default;
};

template <class IO>
void Fields(IO& io, MatchPairReq& m) {
  io(m.source, m.target, m.deadline_ms);
}

/// Matches `query` against every other submitted schema.
struct MatchCorpusReq {
  static constexpr MsgType kType = MsgType::kMatchCorpus;
  using Response = MatchCorpusResp;
  std::string query;
  uint64_t deadline_ms = 0;

  friend bool operator==(const MatchCorpusReq&,
                         const MatchCorpusReq&) = default;
};

template <class IO>
void Fields(IO& io, MatchCorpusReq& m) {
  io(m.query, m.deadline_ms);
}

/// The probes and scrapes carry no payload: the frame type is the request.
template <MsgType kRequest, class Resp>
struct EmptyReq {
  static constexpr MsgType kType = kRequest;
  using Response = Resp;
};

template <class IO, MsgType kRequest, class Resp>
void Fields(IO&, EmptyReq<kRequest, Resp>&) {}

using StatsReq = EmptyReq<MsgType::kGetStats, StatsResp>;
using MetricsReq = EmptyReq<MsgType::kGetMetrics, MetricsResp>;
using HealthReq = EmptyReq<MsgType::kHealth, HealthResp>;
using RoleReq = EmptyReq<MsgType::kRole, RoleResp>;

}  // namespace qmatch::net

#endif  // QMATCH_NET_FRAME_H_
