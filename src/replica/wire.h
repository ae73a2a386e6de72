#ifndef QMATCH_REPLICA_WIRE_H_
#define QMATCH_REPLICA_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "persist/wire.h"
#include "replica/log.h"

namespace qmatch::replica {

/// Replicated record types. kCacheEntry is persist::RecordType's value on
/// purpose: its payload IS the journal record payload (an encoded
/// persist::CacheEntryRec), shipped unmodified. 2 is retired
/// with the persist corpus record and never reused. kSchema is
/// replication-only — schemas live in the server's in-memory
/// registry, not the persist store, but a warm standby needs them to
/// answer its first request without re-submission.
enum class RecordType : uint32_t {
  kCacheEntry = 1,
  kSchema = 3,
};

/// One replicated schema registration: the name plus the exact XSD text it
/// was parsed from (the standby re-parses, so fingerprints agree).
struct SchemaRec {
  std::string name;
  std::string xsd_text;

  friend bool operator==(const SchemaRec&, const SchemaRec&) = default;
};

template <class IO>
void Fields(IO& io, SchemaRec& m) {
  io(m.name, m.xsd_text);
}

template <class IO>
void Fields(IO& io, LogRecord& m) {
  io(m.seq, m.type, m.payload);
}

using persist::Decode;
using persist::Encode;

// ---------------------------------------------------------------------------
// Frame payloads of the replication stream (net::MsgType kReplicaSubscribe /
// kReplicaRecords / kReplicaSnapshot). Same codec as the rest of the
// protocol: one Fields list per message (persist/wire.h), hostile counts
// rejected before any reserve.
// ---------------------------------------------------------------------------

/// Standby -> primary: stream me everything from `from_seq` on. Sent once
/// per connection; the primary answers with either a kReplicaSnapshot
/// anchor (from_seq predates its log) or directly with kReplicaRecords
/// batches, then keeps pushing as new records land.
struct SubscribeReq {
  uint64_t from_seq = 1;
  /// The subscriber's fencing epoch (DESIGN.md §16). A primary rejects
  /// subscriptions from a HIGHER epoch (and fences itself — the handshake
  /// is one of the three demotion triggers) and from a LOWER epoch (the
  /// subscriber must adopt the new epoch and resubscribe).
  uint64_t epoch = 0;

  friend bool operator==(const SubscribeReq&, const SubscribeReq&) = default;
};

template <class IO>
void Fields(IO& io, SubscribeReq& m) {
  io(m.from_seq, m.epoch);
}

/// Primary -> standby: a batch of consecutive log records plus the
/// primary's current head (the standby's lag gauge = head_seq - applied).
/// An empty batch is a heartbeat — it carries the head so lag stays
/// truthful while the stream idles, and it proves liveness.
struct RecordsMsg {
  uint64_t head_seq = 0;
  /// The sender's fencing epoch; a standby drops batches from a stale
  /// epoch instead of applying them.
  uint64_t epoch = 0;
  std::vector<LogRecord> records;

  friend bool operator==(const RecordsMsg&, const RecordsMsg&) = default;
};

template <class IO>
void Fields(IO& io, RecordsMsg& m) {
  io(m.head_seq, m.epoch, m.records);
}

/// Primary -> standby: a full-state anchor. Everything the primary knows,
/// captured at `next_seq` (records with seq >= next_seq may overlap the
/// state — replay is idempotent last-wins, same as journal-over-snapshot).
/// The standby applies it wholesale, sets applied = next_seq - 1 and keeps
/// reading records.
struct SnapshotMsg {
  uint64_t next_seq = 1;
  /// The sender's fencing epoch; a standby refuses to anchor on a stale
  /// epoch's snapshot.
  uint64_t epoch = 0;
  std::vector<SchemaRec> schemas;
  /// Encoded persist cache record payloads, exactly what the primary's
  /// snapshot file would hold.
  std::vector<std::string> cache_payloads;

  friend bool operator==(const SnapshotMsg&, const SnapshotMsg&) = default;
};

template <class IO>
void Fields(IO& io, SnapshotMsg& m) {
  io(m.next_seq, m.epoch, m.schemas, m.cache_payloads);
}

}  // namespace qmatch::replica

#endif  // QMATCH_REPLICA_WIRE_H_
