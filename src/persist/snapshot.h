#ifndef QMATCH_PERSIST_SNAPSHOT_H_
#define QMATCH_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "persist/wire.h"

namespace qmatch::persist {

/// On-disk format (DESIGN.md §12). Two files share one record framing:
///
///   snapshot (rewritten whole, atomically):
///     [8]  magic "QMSNAP01"
///     [4]  format version (kFormatVersion)
///     [8]  engine config fingerprint
///     [4]  CRC32 of the 20 header bytes
///     then records until EOF
///
///   journal (header written atomically, records appended):
///     [8]  magic "QMJRNL01"
///     [4]  format version
///     [8]  engine config fingerprint
///     [4]  CRC32 of the 20 header bytes
///     then appended records
///
///   record (persist/wire.h framing, shared with qmatchd frames):
///     [4]  type          (RecordType)
///     [4]  payload length (<= kMaxPayloadBytes)
///     [n]  payload       (the record's Fields list)
///     [4]  CRC32 of type + length + payload
///
/// Validation rules — who gets to be wrong, and how:
///  * snapshot: only ever created whole via WriteFileAtomic, so ANY
///    framing/CRC violation (truncation included) is corruption →
///    kDataLoss. A crash can never tear it.
///  * journal: appends are the in-flight mutation, so a partial record at
///    EOF is the expected crash artefact → silently truncated (the update
///    it carried simply never committed; the store is the previous
///    state). A CRC failure on a *complete* record cannot come from a
///    crash → kDataLoss.
///  * a config-fingerprint mismatch is not corruption: the file is valid
///    but was written by a differently-configured engine, so every entry
///    is dropped (counted), never trusted.

inline constexpr std::string_view kSnapshotMagic = "QMSNAP01";
inline constexpr std::string_view kJournalMagic = "QMJRNL01";
inline constexpr uint32_t kFormatVersion = 1;
/// Framing sanity cap: a record payload longer than this is corruption by
/// definition (the engine never writes one), so hostile length fields are
/// rejected before any allocation.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MiB

enum class RecordType : uint32_t {
  /// One result-cache entry (upsert, keyed by the fingerprint triple).
  kCacheEntry = 1,
  // 2 was kCorpusEntry (retired): old stores still hold it; never reuse.
};

/// Persisted form of one cached correspondence: endpoint paths (node
/// pointers are rehydrated against the caller's schemas on every hit) and
/// the exact score bits. The qmatchd protocol ships the same struct
/// (net::WireCorrespondence).
struct CorrespondenceRec {
  std::string source_path;
  std::string target_path;
  double score = 0.0;

  friend bool operator==(const CorrespondenceRec&,
                         const CorrespondenceRec&) = default;
};

template <class IO>
void Fields(IO& io, CorrespondenceRec& m) {
  io(m.source_path, m.target_path, m.score);
}

/// Persisted form of one MatchEngine result-cache entry. Its encoding is a
/// kCacheEntry record's payload, and the unit the replication stream
/// ships (src/replica/): a replicated entry is bit-identical to a
/// journaled one.
struct CacheEntryRec {
  uint64_t source_fp = 0;
  uint64_t target_fp = 0;
  uint64_t config_hash = 0;
  std::string algorithm;
  double schema_qom = 0.0;
  std::vector<CorrespondenceRec> correspondences;

  friend bool operator==(const CacheEntryRec&, const CacheEntryRec&) = default;
};

template <class IO>
void Fields(IO& io, CacheEntryRec& m) {
  io(m.source_fp, m.target_fp, m.config_hash, m.algorithm, m.schema_qom,
     m.correspondences);
}

/// Decoded store content, in record order (oldest first). Cache records
/// are upserts: replaying duplicates is idempotent and last-wins, which is
/// what makes "snapshot committed, journal not yet reset" a consistent
/// crash state.
struct StoreState {
  std::vector<CacheEntryRec> cache_entries;
};

/// Accounting of one load: what was read, dropped, or truncated.
struct LoadStats {
  bool snapshot_present = false;
  bool journal_present = false;
  size_t snapshot_records = 0;
  size_t journal_records = 0;
  /// Records dropped untrusted: config-fingerprint mismatch or an unknown
  /// (future or retired) record type with a valid CRC.
  size_t dropped_records = 0;
  /// Bytes of torn journal tail discarded (the crash artefact).
  size_t truncated_tail_bytes = 0;
  /// True when Open() discarded corrupt state and started cold.
  bool started_cold = false;
  /// Set when the file header carried a different engine-config
  /// fingerprint: the file is valid, but every record in it was dropped.
  /// Open() resets a mismatched journal so new appends are not poisoned.
  bool snapshot_config_mismatch = false;
  bool journal_config_mismatch = false;
};

/// Encodes a whole snapshot file (header + one record per entry).
std::string EncodeSnapshot(const StoreState& state,
                           uint64_t config_fingerprint);

/// Encodes the journal header (the only part written at journal creation).
std::string EncodeJournalHeader(uint64_t config_fingerprint);

/// Decodes snapshot bytes. Appends decoded entries to `state` and tallies
/// into `stats` (both must be non-null). Any framing/CRC violation →
/// kDataLoss with `state` holding only fully-validated records.
Status DecodeSnapshot(std::string_view bytes, uint64_t config_fingerprint,
                      StoreState* state, LoadStats* stats);

/// Decodes journal bytes. A partial record at EOF is truncated silently
/// (counted in `stats->truncated_tail_bytes`); a CRC failure on a complete
/// record → kDataLoss.
Status DecodeJournal(std::string_view bytes, uint64_t config_fingerprint,
                     StoreState* state, LoadStats* stats);

}  // namespace qmatch::persist

#endif  // QMATCH_PERSIST_SNAPSHOT_H_
