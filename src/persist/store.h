#ifndef QMATCH_PERSIST_STORE_H_
#define QMATCH_PERSIST_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "persist/snapshot.h"

namespace qmatch::persist {

/// PersistentStore — the crash-safe on-disk state layer under MatchEngine
/// (DESIGN.md §12). One directory holds two files:
///
///   <dir>/snapshot.qms   full state, rewritten atomically by Compact()
///   <dir>/journal.qmj    header + appended incremental updates
///
/// Durable state at any instant = snapshot + journal replayed over it.
/// Cache records are idempotent upserts, so every crash point in the
/// save/compact sequence lands on a consistent state:
///
///   crash during snapshot temp write  -> old snapshot + old journal (old)
///   crash after snapshot rename,
///         before journal reset        -> new snapshot + old journal
///                                        (replay is idempotent: new)
///   crash during journal append       -> torn tail truncated on load
///                                        (the in-flight update never
///                                        committed: previous state)
///
/// The store never yields kDataLoss from a crash — only from genuine
/// corruption (checksum/framing violations on committed bytes). Open()
/// quarantines corrupt files aside as *.corrupt and starts cold rather
/// than failing the engine.
///
/// Thread-safe; all methods serialize on one internal mutex.
class PersistentStore {
 public:
  /// Opens (creating `dir` if needed) and loads the durable state into
  /// `*state` with accounting in `*stats` (both required). Corrupt files
  /// are moved aside and the store starts cold (stats->started_cold).
  static Result<std::unique_ptr<PersistentStore>> Open(
      const std::string& dir, uint64_t config_fingerprint, StoreState* state,
      LoadStats* stats);

  /// Read-only load of a store directory, without opening it for writing —
  /// what a warm-starting engine (or the recovery harness) sees. The
  /// `persist.load` failpoint injects a short read of each file here.
  static Status LoadState(const std::string& dir, uint64_t config_fingerprint,
                          StoreState* state, LoadStats* stats);

  ~PersistentStore();

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// Appends one incremental update to the journal (fsynced before
  /// returning). A graceful failure truncates the partial bytes back off
  /// the journal — a failed append leaves no trace; only a crash can leave
  /// a torn tail, and the loader drops it.
  Status AppendCache(const CacheEntryRec& entry);

  /// Rewrites the snapshot to `full_state` (atomically) and resets the
  /// journal. On failure the previous durable state remains loadable.
  Status Compact(const StoreState& full_state);

  /// Journal appends since the last successful Compact (drives the
  /// engine's periodic-compaction cadence).
  size_t appends_since_compact() const;

  const std::string& dir() const { return dir_; }
  std::string snapshot_path() const;
  std::string journal_path() const;

 private:
  PersistentStore(std::string dir, uint64_t config_fingerprint)
      : dir_(std::move(dir)), config_fingerprint_(config_fingerprint) {}

  /// Opens the journal fd for appending, writing a fresh header first when
  /// the file is missing. Caller holds mutex_.
  Status EnsureJournalLocked();
  Status AppendRecordLocked(const std::string& record);
  void CloseJournalLocked();

  const std::string dir_;
  const uint64_t config_fingerprint_;

  mutable std::mutex mutex_;
  int journal_fd_ = -1;       // guarded by mutex_
  size_t appends_ = 0;        // guarded by mutex_
};

}  // namespace qmatch::persist

#endif  // QMATCH_PERSIST_STORE_H_
