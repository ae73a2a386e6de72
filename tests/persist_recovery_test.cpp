// Crash-point recovery harness (ISSUE 5 acceptance centerpiece). For every
// failpoint the save/compact sequence passes through (persist.write,
// persist.fsync, persist.rename), enumerate its hit points with
// fire_on_nth_hit and kill the save mid-flight at each one — the kThrow
// action throws from *inside* the I/O sequence, before any graceful
// cleanup runs, leaving exactly the torn bytes a real crash would. Then
// reload and require:
//
//   1. the load is OK — a crash must NEVER surface as kDataLoss;
//   2. the loaded state is exactly the pre-save state or exactly the
//      post-save state (canonicalized last-wins), never a mix, never
//      partial;
//   3. at the engine level, a warm start over the crashed directory serves
//      QoM bit-identical to a fresh compute.
//
// Runs under `ctest -C recovery -L recovery` — what `scripts/ci.sh
// recovery` invokes under ASan and UBSan.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common/file_util.h"
#include "common/status.h"
#include "core/engine.h"
#include "datagen/corpus.h"
#include "fault/failpoint.h"
#include "persist/store.h"

#if !QMATCH_FAULT_ENABLED
#error "persist_recovery_test requires QMATCH_FAULT (see tests/CMakeLists.txt)"
#endif

namespace qmatch::persist {
namespace {

constexpr uint64_t kConfig = 0x5AFE5AFEULL;
const char* const kCrashPoints[] = {"persist.write", "persist.fsync",
                                    "persist.rename"};
/// Upper bound on hit points per failpoint in one save sequence — the
/// enumeration asserts it terminates well before this.
constexpr uint64_t kMaxCrashDepth = 20;

/// The two files of a store directory, captured in memory so every
/// enumeration iteration starts from a byte-identical disk state.
struct DiskImage {
  std::optional<std::string> snapshot;
  std::optional<std::string> journal;
};

DiskImage CaptureDir(const std::string& dir) {
  DiskImage image;
  Result<std::string> snapshot = ReadFile(dir + "/snapshot.qms");
  if (snapshot.ok()) image.snapshot = std::move(*snapshot);
  Result<std::string> journal = ReadFile(dir + "/journal.qmj");
  if (journal.ok()) image.journal = std::move(*journal);
  return image;
}

void RestoreDir(const std::string& dir, const DiskImage& image) {
  ASSERT_TRUE(EnsureDir(dir).ok());
  for (const char* file : {"/snapshot.qms", "/journal.qmj",
                           "/snapshot.qms.tmp", "/journal.qmj.tmp",
                           "/snapshot.qms.corrupt", "/journal.qmj.corrupt"}) {
    std::remove((dir + file).c_str());
  }
  if (image.snapshot) {
    ASSERT_TRUE(WriteFile(dir + "/snapshot.qms", *image.snapshot).ok());
  }
  if (image.journal) {
    ASSERT_TRUE(WriteFile(dir + "/journal.qmj", *image.journal).ok());
  }
}

std::string TempRecoveryDir(const std::string& name) {
  return ::testing::TempDir() + "qmatch_recovery_" + name + "_" +
         std::to_string(::getpid());
}

/// Canonical store content: replay semantics applied (upsert, last wins),
/// so two byte-different but semantically identical states compare equal.
struct CanonState {
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>, CacheEntryRec> cache;

  friend bool operator==(const CanonState&, const CanonState&) = default;
};

CanonState Canon(const StoreState& state) {
  CanonState canon;
  for (const CacheEntryRec& rec : state.cache_entries) {
    canon.cache[{rec.source_fp, rec.target_fp, rec.config_hash}] = rec;
  }
  return canon;
}

/// Loads `dir` with failpoints quiet and requires the crash-recovery
/// contract: OK status (never kDataLoss — a crash must not read as
/// corruption) and a state canonically equal to `old_state` or
/// `new_state`.
void ExpectOldOrNew(const std::string& dir, const CanonState& old_state,
                    const CanonState& new_state, const std::string& context) {
  StoreState loaded;
  LoadStats stats;
  Status status = PersistentStore::LoadState(dir, kConfig, &loaded, &stats);
  ASSERT_TRUE(status.ok()) << context << ": crash read back as " << status;
  const CanonState canon = Canon(loaded);
  EXPECT_TRUE(canon == old_state || canon == new_state)
      << context << ": recovered state is neither old nor new ("
      << canon.cache.size() << " cache entries)";
}

/// kThrow on exactly the nth hit — the simulated kill.
fault::FaultSpec CrashSpec(uint64_t nth) {
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kThrow;
  spec.fire_on_nth_hit = nth;
  spec.max_fires = 1;
  return spec;
}

CacheEntryRec MakeEntry(uint64_t salt) {
  CacheEntryRec rec;
  rec.source_fp = 0xA000 + salt;
  rec.target_fp = 0xB000 + salt;
  rec.config_hash = kConfig;
  rec.algorithm = "hybrid";
  rec.schema_qom = 0.625 + static_cast<double>(salt) * 0.03125;
  rec.correspondences.push_back(CorrespondenceRec{
      "/S/a" + std::to_string(salt), "/T/b" + std::to_string(salt), 0.875});
  return rec;
}

/// Builds the template "old" disk state: snapshot holding A, journal
/// holding an append of B. Returns its image.
DiskImage MakeOldImage(const std::string& dir, StoreState* old_state) {
  RestoreDir(dir, DiskImage{});
  StoreState ignored;
  LoadStats stats;
  auto store = PersistentStore::Open(dir, kConfig, &ignored, &stats);
  EXPECT_TRUE(store.ok()) << store.status();
  StoreState snapshot_state;
  snapshot_state.cache_entries.push_back(MakeEntry(1));
  EXPECT_TRUE((*store)->Compact(snapshot_state).ok());
  EXPECT_TRUE((*store)->AppendCache(MakeEntry(2)).ok());
  *old_state = snapshot_state;
  old_state->cache_entries.push_back(MakeEntry(2));
  return CaptureDir(dir);
}

/// Enumerates every crash point of `op` (re-run against a fresh store each
/// iteration) and checks old-or-new recovery after each kill. `op` gets
/// the opened store and performs the save being attacked. `total_crashes`
/// counts the kills actually delivered across all failpoints — callers
/// assert a minimum so a renamed failpoint cannot make the test pass
/// vacuously.
template <typename Op>
void EnumerateCrashPoints(const std::string& dir, const DiskImage& old_image,
                          const CanonState& old_canon,
                          const CanonState& new_canon, const Op& op,
                          const char* op_name, uint64_t* total_crashes) {
  *total_crashes = 0;
  for (const char* point : kCrashPoints) {
    uint64_t crashes = 0;
    for (uint64_t nth = 1; nth <= kMaxCrashDepth; ++nth) {
      RestoreDir(dir, old_image);
      StoreState loaded;
      LoadStats stats;
      auto store = PersistentStore::Open(dir, kConfig, &loaded, &stats);
      ASSERT_TRUE(store.ok()) << store.status();
      uint64_t fires = 0;
      {
        fault::ScopedFailpoint fp(point, CrashSpec(nth));
        try {
          op(store->get());
        } catch (const fault::FailpointException&) {
          // The simulated crash: control never returns to the save path,
          // cleanup code never runs, the disk keeps whatever landed.
        }
        fires = fp.stats().fires;
      }
      store->reset();  // closes fds only; never writes
      if (fires == 0) break;  // op ran past its last hit of this point
      ++crashes;
      ++*total_crashes;
      ExpectOldOrNew(dir, old_canon, new_canon,
                     std::string(op_name) + " killed at " + point + " hit #" +
                         std::to_string(nth));
      if (::testing::Test::HasFailure()) return;
    }
    ASSERT_LT(crashes, kMaxCrashDepth)
        << point << ": crash enumeration did not terminate";
  }
}

TEST(PersistRecoveryTest, JournalAppendKilledAtEveryCrashPoint) {
  const std::string dir = TempRecoveryDir("append");
  StoreState old_state;
  const DiskImage old_image = MakeOldImage(dir, &old_state);
  StoreState new_state = old_state;
  new_state.cache_entries.push_back(MakeEntry(3));
  uint64_t crashes = 0;
  EnumerateCrashPoints(
      dir, old_image, Canon(old_state), Canon(new_state),
      [](PersistentStore* store) {
        ASSERT_TRUE(store->AppendCache(MakeEntry(3)).ok());
      },
      "AppendCache", &crashes);
  // An append passes persist.write and persist.fsync at minimum.
  EXPECT_GE(crashes, 2u);
}

TEST(PersistRecoveryTest, UpsertAppendKilledAtEveryCrashPoint) {
  // The append overwrites a key the snapshot already holds: recovery must
  // see either the snapshot's version or the update, never a mix.
  const std::string dir = TempRecoveryDir("upsert_append");
  StoreState old_state;
  const DiskImage old_image = MakeOldImage(dir, &old_state);
  CacheEntryRec update = MakeEntry(1);
  update.schema_qom = 0.25;
  update.correspondences[0].score = 0.5;
  StoreState new_state = old_state;
  new_state.cache_entries.push_back(update);
  uint64_t crashes = 0;
  EnumerateCrashPoints(
      dir, old_image, Canon(old_state), Canon(new_state),
      [&update](PersistentStore* store) {
        ASSERT_TRUE(store->AppendCache(update).ok());
      },
      "AppendCache upsert", &crashes);
  EXPECT_GE(crashes, 2u);
}

TEST(PersistRecoveryTest, CompactKilledAtEveryCrashPoint) {
  const std::string dir = TempRecoveryDir("compact");
  StoreState old_state;
  const DiskImage old_image = MakeOldImage(dir, &old_state);
  StoreState new_state = old_state;
  new_state.cache_entries.push_back(MakeEntry(3));
  uint64_t crashes = 0;
  EnumerateCrashPoints(
      dir, old_image, Canon(old_state), Canon(new_state),
      [&new_state](PersistentStore* store) {
        ASSERT_TRUE(store->Compact(new_state).ok());
      },
      "Compact", &crashes);
  // Two atomic file replacements (snapshot + journal header), each passing
  // write/fsync/rename: at least one kill per failpoint per file.
  EXPECT_GE(crashes, 6u);
}

TEST(PersistRecoveryTest, AppendThenCompactKilledAtEveryCrashPoint) {
  // The full engine save cadence in one op: an incremental append followed
  // by a compaction. Valid recovered states are old or new only — the
  // intermediate "append landed, compact did not" equals new-minus-nothing
  // here because the compacted state contains the appended entry.
  const std::string dir = TempRecoveryDir("append_compact");
  StoreState old_state;
  const DiskImage old_image = MakeOldImage(dir, &old_state);
  StoreState new_state = old_state;
  new_state.cache_entries.push_back(MakeEntry(3));
  uint64_t crashes = 0;
  EnumerateCrashPoints(
      dir, old_image, Canon(old_state), Canon(new_state),
      [&new_state](PersistentStore* store) {
        ASSERT_TRUE(store->AppendCache(MakeEntry(3)).ok());
        ASSERT_TRUE(store->Compact(new_state).ok());
      },
      "AppendThenCompact", &crashes);
  EXPECT_GE(crashes, 8u);  // the append's points plus the compact's
}

TEST(PersistRecoveryTest, ShortReadOnLoadDegradesToColdStartNotCorruptServe) {
  // The read side: persist.load injects a short read (first half of the
  // bytes). The snapshot half-read is indistinguishable from real
  // corruption, so the contract is quarantine + cold start — never serving
  // a half-parsed state, never failing the open.
  const std::string dir = TempRecoveryDir("short_read");
  StoreState old_state;
  const DiskImage old_image = MakeOldImage(dir, &old_state);
  RestoreDir(dir, old_image);
  fault::FaultSpec short_read;
  short_read.action = fault::FaultAction::kError;
  short_read.code = StatusCode::kIoError;
  fault::ScopedFailpoint fp("persist.load", short_read);
  StoreState loaded;
  LoadStats stats;
  auto store = PersistentStore::Open(dir, kConfig, &loaded, &stats);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(stats.started_cold);
  EXPECT_TRUE(loaded.cache_entries.empty());
  EXPECT_TRUE(FileExists(dir + "/snapshot.qms.corrupt"));
}

// --- engine level ---------------------------------------------------------

TEST(PersistRecoveryTest, EngineShutdownCompactKilledAtEveryCrashPoint) {
  // Kill the engine's destructor-time compaction at every crash point,
  // warm-start a new engine over the crashed directory, and require the
  // served results bit-identical to a fresh compute (the whole point of
  // trusting recovered entries).
  const std::string dir = TempRecoveryDir("engine");
  const xsd::Schema po1 = datagen::MakePO1();
  const xsd::Schema po2 = datagen::MakePO2();
  const xsd::Schema article = datagen::MakeArticle();
  const xsd::Schema book = datagen::MakeBook();

  core::MatchEngineOptions options;
  options.threads = 1;
  options.persist_dir = dir;

  // Fresh reference compute, no persistence involved.
  core::MatchEngineOptions cold_options;
  cold_options.threads = 1;
  const core::MatchEngine reference(cold_options);
  const MatchResult fresh_po = reference.Match(po1, po2);
  const MatchResult fresh_books = reference.Match(article, book);

  // Template state: both entries durable (snapshot via explicit compact +
  // journal append), captured as the pre-crash image.
  RestoreDir(dir, DiskImage{});
  DiskImage old_image;
  {
    core::MatchEngine engine(options);
    ASSERT_TRUE(engine.persist_enabled());
    (void)engine.Match(po1, po2);
    ASSERT_TRUE(engine.CompactPersist().ok());
    (void)engine.Match(article, book);  // lives in the journal
    old_image = CaptureDir(dir);
  }

  uint64_t total_crashes = 0;
  for (const char* point : kCrashPoints) {
    for (uint64_t nth = 1; nth <= kMaxCrashDepth; ++nth) {
      RestoreDir(dir, old_image);
      uint64_t fires = 0;
      {
        auto engine = std::make_unique<core::MatchEngine>(options);
        ASSERT_TRUE(engine->persist_enabled());
        EXPECT_EQ(engine->cache_stats().entries, 2u);
        fault::ScopedFailpoint fp(point, CrashSpec(nth));
        engine.reset();  // destructor compacts; the kill lands mid-save
        fires = fp.stats().fires;
      }
      if (fires == 0) break;
      ++total_crashes;
      SCOPED_TRACE(std::string("shutdown killed at ") + point + " hit #" +
                   std::to_string(nth));
      // Recovery: the warm engine must come up consistent...
      core::MatchEngine warm(options);
      ASSERT_TRUE(warm.persist_enabled());
      EXPECT_FALSE(warm.persist_load_stats().started_cold)
          << "a crash must never read as corruption";
      // ...and serve bit-identical QoM whether each entry was recovered
      // (cache hit) or lost to the torn tail (recomputed).
      const MatchResult warm_po = warm.Match(po1, po2);
      const MatchResult warm_books = warm.Match(article, book);
      EXPECT_EQ(warm_po.schema_qom, fresh_po.schema_qom);
      EXPECT_EQ(warm_books.schema_qom, fresh_books.schema_qom);
      ASSERT_EQ(warm_po.correspondences.size(),
                fresh_po.correspondences.size());
      for (size_t i = 0; i < warm_po.correspondences.size(); ++i) {
        EXPECT_EQ(warm_po.correspondences[i].score,
                  fresh_po.correspondences[i].score);
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Vacuity guard: the destructor compaction atomically replaces two files
  // (snapshot + journal header), so every crash point must have been hit.
  EXPECT_GE(total_crashes, 6u);
}

}  // namespace
}  // namespace qmatch::persist
