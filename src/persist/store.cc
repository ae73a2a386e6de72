#include "persist/store.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/file_util.h"
#include "fault/failpoint.h"
#include "obs/obs.h"

namespace qmatch::persist {

namespace {

constexpr std::string_view kSnapshotFile = "snapshot.qms";
constexpr std::string_view kJournalFile = "journal.qmj";

std::string JoinPath(const std::string& dir, std::string_view file) {
  std::string out = dir;
  if (!out.empty() && out.back() != '/') out += '/';
  out += file;
  return out;
}

/// Reads one store file, honouring the `persist.load` short-read
/// failpoint: a fired kError keeps only the first half of the bytes —
/// exactly what an interrupted read (or a concurrently-truncated file)
/// hands the loader.
Result<std::string> ReadStoreFile(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (text.ok() && QMATCH_FAILPOINT_FIRED("persist.load")) {
    return text.value().substr(0, text.value().size() / 2);
  }
  return text;
}

/// Quarantines a corrupt file as <path>.corrupt (best effort, one
/// generation kept for forensics) so the store can start cold without
/// tripping over the same bytes forever.
void QuarantineFile(const std::string& path) {
  if (!FileExists(path)) return;
  const std::string corrupt = path + ".corrupt";
  std::remove(corrupt.c_str());
  if (std::rename(path.c_str(), corrupt.c_str()) != 0) {
    std::remove(path.c_str());
  }
}

bool WriteAllFd(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<PersistentStore>> PersistentStore::Open(
    const std::string& dir, uint64_t config_fingerprint, StoreState* state,
    LoadStats* stats) {
  QMATCH_COUNTER_ADD("persist.load", 1);
  QMATCH_RETURN_IF_ERROR(EnsureDir(dir));
  std::unique_ptr<PersistentStore> store(
      new PersistentStore(dir, config_fingerprint));
  Status loaded = LoadState(dir, config_fingerprint, state, stats);
  if (!loaded.ok()) {
    if (loaded.code() != StatusCode::kDataLoss) return loaded;
    // Corrupt state is quarantined, never trusted and never fatal: the
    // engine pays a cold start instead of refusing to serve.
    QMATCH_COUNTER_ADD("persist.load_data_loss", 1);
    QuarantineFile(store->snapshot_path());
    QuarantineFile(store->journal_path());
    *state = StoreState{};
    *stats = LoadStats{};
    stats->started_cold = true;
  }
  std::lock_guard<std::mutex> lock(store->mutex_);
  if (stats->journal_config_mismatch) {
    // The journal on disk belongs to a differently-configured engine; our
    // appends would be dropped behind its header. Reset it (atomically)
    // before the first append.
    QMATCH_RETURN_IF_ERROR(WriteFileAtomic(
        store->journal_path(), EncodeJournalHeader(config_fingerprint)));
  }
  QMATCH_RETURN_IF_ERROR(store->EnsureJournalLocked());
  return store;
}

Status PersistentStore::LoadState(const std::string& dir,
                                  uint64_t config_fingerprint,
                                  StoreState* state, LoadStats* stats) {
  const std::string snapshot = JoinPath(dir, kSnapshotFile);
  if (FileExists(snapshot)) {
    stats->snapshot_present = true;
    Result<std::string> bytes = ReadStoreFile(snapshot);
    if (!bytes.ok()) return bytes.status();
    QMATCH_RETURN_IF_ERROR(
        DecodeSnapshot(*bytes, config_fingerprint, state, stats));
  }
  const std::string journal = JoinPath(dir, kJournalFile);
  if (FileExists(journal)) {
    stats->journal_present = true;
    Result<std::string> bytes = ReadStoreFile(journal);
    if (!bytes.ok()) return bytes.status();
    QMATCH_RETURN_IF_ERROR(
        DecodeJournal(*bytes, config_fingerprint, state, stats));
  }
  return Status::OK();
}

PersistentStore::~PersistentStore() {
  std::lock_guard<std::mutex> lock(mutex_);
  CloseJournalLocked();
}

std::string PersistentStore::snapshot_path() const {
  return JoinPath(dir_, kSnapshotFile);
}

std::string PersistentStore::journal_path() const {
  return JoinPath(dir_, kJournalFile);
}

void PersistentStore::CloseJournalLocked() {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
}

Status PersistentStore::EnsureJournalLocked() {
  if (journal_fd_ >= 0) return Status::OK();
  const std::string path = journal_path();
  if (!FileExists(path)) {
    // The header commits atomically, so a journal either exists with a
    // valid header or not at all — a torn header is impossible.
    QMATCH_RETURN_IF_ERROR(
        WriteFileAtomic(path, EncodeJournalHeader(config_fingerprint_)));
  }
  journal_fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (journal_fd_ < 0) {
    return Status::IoError(path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status PersistentStore::AppendRecordLocked(const std::string& record) {
  QMATCH_RETURN_IF_ERROR(EnsureJournalLocked());
  struct stat st{};
  if (::fstat(journal_fd_, &st) != 0) {
    return Status::IoError(journal_path() + ": " + std::strerror(errno));
  }
  const off_t base = st.st_size;
  // Failed appends must leave no trace, so every graceful error path
  // truncates back to the pre-append length. Only a crash (a throwing
  // failpoint here, or a real one) leaves a torn tail — which the loader
  // drops as the uncommitted in-flight update.
  const size_t half = record.size() / 2;
  if (!WriteAllFd(journal_fd_, record.data(), half)) {
    const Status error =
        Status::IoError(journal_path() + ": " + std::strerror(errno));
    (void)::ftruncate(journal_fd_, base);
    return error;
  }
  if (QMATCH_FAILPOINT_FIRED("persist.write")) {
    (void)::ftruncate(journal_fd_, base);
    return Status::IoError(journal_path() + ": injected short append");
  }
  if (!WriteAllFd(journal_fd_, record.data() + half, record.size() - half)) {
    const Status error =
        Status::IoError(journal_path() + ": " + std::strerror(errno));
    (void)::ftruncate(journal_fd_, base);
    return error;
  }
  if (QMATCH_FAILPOINT_FIRED("persist.fsync")) {
    (void)::ftruncate(journal_fd_, base);
    return Status::IoError(journal_path() + ": injected fsync failure");
  }
  if (::fsync(journal_fd_) != 0) {
    const Status error =
        Status::IoError(journal_path() + ": " + std::strerror(errno));
    (void)::ftruncate(journal_fd_, base);
    return error;
  }
  ++appends_;
  QMATCH_COUNTER_ADD("persist.journal_appends", 1);
  return Status::OK();
}

Status PersistentStore::AppendCache(const CacheEntryRec& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  return AppendRecordLocked(EncodeFrame(
      static_cast<uint32_t>(RecordType::kCacheEntry), Encode(entry)));
}

Status PersistentStore::Compact(const StoreState& full_state) {
  std::lock_guard<std::mutex> lock(mutex_);
  QMATCH_COUNTER_ADD("persist.save", 1);
  // Order is the crash-safety argument: (1) commit the new snapshot
  // atomically; (2) reset the journal atomically. A crash between the two
  // leaves new snapshot + old journal, and replaying those journal records
  // over the snapshot is idempotent — the loaded state is exactly the new
  // state. No window holds a torn or mixed file.
  Status snapshot = WriteFileAtomic(snapshot_path(),
                                    EncodeSnapshot(full_state,
                                                   config_fingerprint_));
  if (!snapshot.ok()) {
    QMATCH_COUNTER_ADD("persist.save_failures", 1);
    return snapshot;
  }
  CloseJournalLocked();
  Status journal = WriteFileAtomic(journal_path(),
                                   EncodeJournalHeader(config_fingerprint_));
  if (!journal.ok()) {
    // New snapshot + previous journal is consistent (see above); reopen
    // whatever journal survives so appends keep flowing.
    QMATCH_COUNTER_ADD("persist.save_failures", 1);
    (void)EnsureJournalLocked();
    return journal;
  }
  QMATCH_RETURN_IF_ERROR(EnsureJournalLocked());
  appends_ = 0;
  return Status::OK();
}

size_t PersistentStore::appends_since_compact() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appends_;
}

}  // namespace qmatch::persist
