#include "persist/snapshot.h"

#include <utility>

#include "persist/crc32.h"
#include "persist/wire.h"

namespace qmatch::persist {

namespace {

constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4;  // magic + version + fp + crc

std::string EncodeHeader(std::string_view magic, uint64_t config_fingerprint) {
  Encoder enc;
  std::string out(magic);
  enc.PutU32(kFormatVersion);
  enc.PutU64(config_fingerprint);
  out += enc.bytes();
  Encoder crc;
  crc.PutU32(Crc32(out));
  out += crc.bytes();
  return out;
}

/// Validates the 24-byte header. On success sets *fingerprint_matches and
/// advances nothing (caller slices past kHeaderBytes).
Status DecodeHeader(std::string_view bytes, std::string_view magic,
                    uint64_t config_fingerprint, bool* fingerprint_matches) {
  if (bytes.size() < kHeaderBytes) {
    return Status::DataLoss("persist header truncated");
  }
  if (bytes.substr(0, 8) != magic) {
    return Status::DataLoss("persist header magic mismatch");
  }
  Decoder dec(bytes.substr(8));
  uint32_t version = 0;
  uint64_t fingerprint = 0;
  uint32_t crc = 0;
  (void)dec.GetU32(&version);
  (void)dec.GetU64(&fingerprint);
  (void)dec.GetU32(&crc);
  if (crc != Crc32(bytes.substr(0, kHeaderBytes - 4))) {
    return Status::DataLoss("persist header checksum mismatch");
  }
  if (version != kFormatVersion) {
    return Status::DataLoss("persist format version unsupported");
  }
  *fingerprint_matches = fingerprint == config_fingerprint;
  return Status::OK();
}

/// Walks the record stream shared by both files. `tolerate_torn_tail`
/// selects the journal semantics (truncate the crash artefact) vs the
/// snapshot semantics (any violation is corruption).
Status DecodeRecords(std::string_view bytes, bool fingerprint_matches,
                     bool tolerate_torn_tail, bool is_journal,
                     StoreState* state, LoadStats* stats) {
  size_t pos = 0;
  while (pos < bytes.size()) {
    FrameView record;
    size_t record_bytes = 0;
    switch (ParseFrame(bytes.substr(pos), kMaxPayloadBytes, &record,
                       &record_bytes)) {
      case FrameDecodeResult::kFrame:
        break;
      case FrameDecodeResult::kNeedMore:
        if (tolerate_torn_tail) {
          stats->truncated_tail_bytes += bytes.size() - pos;
          return Status::OK();
        }
        return Status::DataLoss("persist record truncated");
      case FrameDecodeResult::kBadLength:
        return Status::DataLoss("persist record length implausible");
      case FrameDecodeResult::kBadCrc:
        // A complete record with a bad checksum cannot be a torn append —
        // a crash only ever leaves a *prefix* of a record. This is
        // corruption even in the journal.
        return Status::DataLoss("persist record checksum mismatch");
    }
    pos += record_bytes;
    if (is_journal) {
      ++stats->journal_records;
    } else {
      ++stats->snapshot_records;
    }
    if (!fingerprint_matches) {
      ++stats->dropped_records;
      continue;
    }
    switch (static_cast<RecordType>(record.type)) {
      case RecordType::kCacheEntry: {
        CacheEntryRec entry;
        if (!Decode(record.payload, &entry)) {
          return Status::DataLoss("persist cache record payload malformed");
        }
        state->cache_entries.push_back(std::move(entry));
        break;
      }
      default:
        // Valid CRC, unknown type: a future format extension or a retired
        // one (type 2). Skipped and counted, never trusted, never fatal.
        ++stats->dropped_records;
        break;
    }
  }
  return Status::OK();
}

}  // namespace

std::string EncodeSnapshot(const StoreState& state,
                           uint64_t config_fingerprint) {
  std::string out = EncodeHeader(kSnapshotMagic, config_fingerprint);
  for (const CacheEntryRec& entry : state.cache_entries) {
    out += EncodeFrame(static_cast<uint32_t>(RecordType::kCacheEntry),
                       Encode(entry));
  }
  return out;
}

std::string EncodeJournalHeader(uint64_t config_fingerprint) {
  return EncodeHeader(kJournalMagic, config_fingerprint);
}

Status DecodeSnapshot(std::string_view bytes, uint64_t config_fingerprint,
                      StoreState* state, LoadStats* stats) {
  bool fingerprint_matches = false;
  QMATCH_RETURN_IF_ERROR(DecodeHeader(bytes, kSnapshotMagic,
                                      config_fingerprint,
                                      &fingerprint_matches));
  stats->snapshot_config_mismatch = !fingerprint_matches;
  return DecodeRecords(bytes.substr(kHeaderBytes), fingerprint_matches,
                       /*tolerate_torn_tail=*/false, /*is_journal=*/false,
                       state, stats);
}

Status DecodeJournal(std::string_view bytes, uint64_t config_fingerprint,
                     StoreState* state, LoadStats* stats) {
  bool fingerprint_matches = false;
  QMATCH_RETURN_IF_ERROR(DecodeHeader(bytes, kJournalMagic, config_fingerprint,
                                      &fingerprint_matches));
  stats->journal_config_mismatch = !fingerprint_matches;
  return DecodeRecords(bytes.substr(kHeaderBytes), fingerprint_matches,
                       /*tolerate_torn_tail=*/true, /*is_journal=*/true, state,
                       stats);
}

}  // namespace qmatch::persist
