#ifndef QMATCH_REPLICA_LOG_H_
#define QMATCH_REPLICA_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace qmatch::replica {

/// One replicated state mutation: a persist-layer record payload (or a
/// schema registration) stamped with a monotone sequence number. `payload`
/// is exactly the bytes the primary's journal holds for the same mutation
/// (persist::Encode of the record), so a standby that applies the stream is
/// bit-identical to one that replayed the journal.
struct LogRecord {
  uint64_t seq = 0;
  uint32_t type = 0;  ///< replica::RecordType (wire.h)
  std::string payload;

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

/// Bounded in-memory ring of the primary's recent durable mutations — the
/// replication stream's source of truth (DESIGN.md §15).
///
/// Sequence 1 is the reserved genesis position and is never stored; the
/// first Append is assigned 2. A brand-new subscriber asking from 1
/// therefore ALWAYS gets `Fetch() == false` and takes a snapshot anchor
/// first — which is what makes state the primary held before this log
/// existed (a warm-started cache, preloaded schemas)
/// reach the standby at all. From there the ring retains the most recent
/// `capacity` records; a subscriber asking for an evicted sequence is
/// anchored the same way, then resumes from the log — the classic
/// snapshot-plus-log catch-up.
///
/// Thread-safe. The listener (the server's "new records available" wakeup)
/// is invoked UNDER the log mutex, so `SetListener(nullptr)` doubles as a
/// barrier: once it returns, no further listener call is in flight — the
/// server uses that to tear down safely.
class ReplicationLog {
 public:
  explicit ReplicationLog(size_t capacity = 8192);

  ReplicationLog(const ReplicationLog&) = delete;
  ReplicationLog& operator=(const ReplicationLog&) = delete;

  /// Appends one record, assigns its sequence number and wakes the
  /// listener. Returns the assigned sequence.
  uint64_t Append(uint32_t type, std::string payload);

  /// Highest sequence ever assigned (the genesis 1 when nothing has been
  /// appended yet).
  uint64_t head_seq() const;

  /// Oldest sequence still retained (0 when the log is empty). A
  /// subscriber whose `from_seq` is below this cannot catch up from the
  /// log alone.
  uint64_t base_seq() const;

  /// Copies records with seq >= from_seq (at most max_records) into *out.
  /// Returns false when from_seq predates base_seq() — the gap was
  /// evicted; the caller must ship a snapshot anchor. from_seq past the
  /// head returns true with an empty batch (caught up).
  bool Fetch(uint64_t from_seq, size_t max_records,
             std::vector<LogRecord>* out) const;

  /// Replaces the append wakeup (nullptr detaches). Called under the log
  /// mutex with the new head sequence; must not call back into the log.
  void SetListener(std::function<void(uint64_t head_seq)> listener);

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<LogRecord> records_;  // guarded by mutex_, seq-ordered
  uint64_t next_seq_ = 2;          // guarded by mutex_; 1 is the genesis
  std::function<void(uint64_t)> listener_;  // guarded by mutex_
};

}  // namespace qmatch::replica

#endif  // QMATCH_REPLICA_LOG_H_
