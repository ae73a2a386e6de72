// Unit tests for src/persist: the wire codec, the snapshot/journal format
// and the PersistentStore lifecycle (append, replay, compaction, config
// mismatch, quarantine). The crash-point matrix lives in
// persist_recovery_test.cpp; hostile-byte robustness in
// persist_fuzz_test.cpp.

#include "persist/store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/file_util.h"
#include "common/status.h"
#include "persist/crc32.h"
#include "persist/snapshot.h"
#include "persist/wire.h"
#include "wire_goldens.h"

namespace qmatch::persist {
namespace {

constexpr uint64_t kConfig = 0xC0FFEE1234ULL;

std::string TempStoreDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qmatch_persist_" + name +
                          "_" + std::to_string(::getpid());
  // Start from a clean slate even when a previous run left files behind.
  for (const char* file :
       {"/snapshot.qms", "/journal.qmj", "/snapshot.qms.corrupt",
        "/journal.qmj.corrupt", "/snapshot.qms.tmp", "/journal.qmj.tmp"}) {
    std::remove((dir + file).c_str());
  }
  return dir;
}

CacheEntryRec SampleCacheEntry(uint64_t salt = 0) {
  CacheEntryRec rec;
  rec.source_fp = 0x1111 + salt;
  rec.target_fp = 0x2222 + salt;
  rec.config_hash = kConfig;
  rec.algorithm = "hybrid";
  rec.schema_qom = 0.728515625 + static_cast<double>(salt) * 0.001;
  rec.correspondences.push_back(
      CorrespondenceRec{"/PO/Address/City", "/Order/City", 0.91015625});
  rec.correspondences.push_back(
      CorrespondenceRec{"/PO/Address/Zip", "/Order/PostalCode", 0.75});
  return rec;
}

// --- wire codec -----------------------------------------------------------

TEST(WireTest, RoundtripsEveryFieldKind) {
  Encoder enc;
  enc.PutU32(0xDEADBEEFu);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutDouble(0.1);  // not exactly representable: bit pattern must survive
  const std::string payload("paths can hold any bytes \x01\x02\x00", 28);
  enc.PutString(payload);
  const std::string bytes = enc.Take();

  Decoder dec(bytes);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(dec.GetU32(&u32));
  ASSERT_TRUE(dec.GetU64(&u64));
  ASSERT_TRUE(dec.GetDouble(&d));
  ASSERT_TRUE(dec.GetString(&s));
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(d, 0.1);  // bitwise: same double, not "approximately"
  EXPECT_EQ(s, payload);
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(WireTest, DecoderNeverOverReads) {
  Encoder enc;
  enc.PutU32(100);  // claims a 100-byte string follows...
  std::string bytes = enc.Take();
  bytes += "only a few";  // ...but only 10 bytes exist
  Decoder dec(bytes);
  std::string s;
  EXPECT_FALSE(dec.GetString(&s));
  uint64_t u64 = 0;
  Decoder empty("");
  EXPECT_FALSE(empty.GetU64(&u64));
  std::string_view view;
  Decoder three(std::string_view("abc"));
  EXPECT_FALSE(three.GetBytes(4, &view));
  ASSERT_TRUE(three.GetBytes(3, &view));
  EXPECT_EQ(view, "abc");
}

TEST(Crc32Test, MatchesKnownVectorAndDetectsFlips) {
  // The canonical IEEE-802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  std::string payload = "snapshot payload";
  const uint32_t crc = Crc32(payload);
  payload[3] ^= 0x40;
  EXPECT_NE(Crc32(payload), crc);
  // Incremental == one-shot.
  EXPECT_EQ(Crc32Update(Crc32("1234"), "56789"), Crc32("123456789"));
}

// --- snapshot/journal codec ----------------------------------------------

TEST(SnapshotCodecTest, SnapshotRoundtripsState) {
  StoreState state;
  state.cache_entries.push_back(SampleCacheEntry(0));
  state.cache_entries.push_back(SampleCacheEntry(7));
  const std::string bytes = EncodeSnapshot(state, kConfig);

  StoreState loaded;
  LoadStats stats;
  ASSERT_TRUE(DecodeSnapshot(bytes, kConfig, &loaded, &stats).ok());
  EXPECT_EQ(loaded.cache_entries, state.cache_entries);
  EXPECT_EQ(stats.snapshot_records, 2u);
  EXPECT_EQ(stats.dropped_records, 0u);
  EXPECT_FALSE(stats.snapshot_config_mismatch);
}

TEST(SnapshotCodecTest, SnapshotTruncationIsDataLoss) {
  StoreState state;
  state.cache_entries.push_back(SampleCacheEntry());
  const std::string bytes = EncodeSnapshot(state, kConfig);
  // A snapshot is only ever written whole, so ANY truncation — even a clean
  // record boundary would be caught by CRC/framing — is corruption.
  for (size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{10}}) {
    StoreState loaded;
    LoadStats stats;
    Status status =
        DecodeSnapshot(bytes.substr(0, keep), kConfig, &loaded, &stats);
    ASSERT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "keep=" << keep;
  }
}

TEST(SnapshotCodecTest, JournalTornTailIsSilentlyTruncated) {
  std::string bytes = EncodeJournalHeader(kConfig);
  bytes += test::FramedCacheRecord(SampleCacheEntry(1));
  const std::string committed = bytes;
  bytes += test::FramedCacheRecord(SampleCacheEntry(2));
  // Tear the second record at every possible prefix length: the loader must
  // keep exactly the first record and count the torn bytes.
  for (size_t keep = committed.size(); keep < bytes.size(); ++keep) {
    StoreState loaded;
    LoadStats stats;
    ASSERT_TRUE(
        DecodeJournal(bytes.substr(0, keep), kConfig, &loaded, &stats).ok())
        << "keep=" << keep;
    ASSERT_EQ(loaded.cache_entries.size(), 1u) << "keep=" << keep;
    EXPECT_EQ(loaded.cache_entries[0], SampleCacheEntry(1));
    EXPECT_EQ(stats.truncated_tail_bytes, keep - committed.size());
  }
}

TEST(SnapshotCodecTest, JournalBitFlipInCommittedRecordIsDataLoss) {
  std::string bytes = EncodeJournalHeader(kConfig);
  bytes += test::FramedCacheRecord(SampleCacheEntry());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  StoreState loaded;
  LoadStats stats;
  Status status = DecodeJournal(bytes, kConfig, &loaded, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(SnapshotCodecTest, ConfigMismatchDropsRecordsButIsNotCorruption) {
  StoreState state;
  state.cache_entries.push_back(SampleCacheEntry());
  state.cache_entries.push_back(SampleCacheEntry(1));
  const std::string bytes = EncodeSnapshot(state, kConfig);
  StoreState loaded;
  LoadStats stats;
  ASSERT_TRUE(DecodeSnapshot(bytes, kConfig + 1, &loaded, &stats).ok());
  EXPECT_TRUE(loaded.cache_entries.empty());
  EXPECT_TRUE(stats.snapshot_config_mismatch);
  EXPECT_EQ(stats.dropped_records, 2u);
}

TEST(SnapshotCodecTest, UnknownRecordTypeWithValidCrcIsSkipped) {
  // Forge a future record type with correct framing and CRC.
  Encoder frame;
  frame.PutU32(999);
  frame.PutU32(4);
  std::string future = frame.Take() + "opaq";
  Encoder crc;
  crc.PutU32(Crc32(future));
  future += crc.bytes();
  // A record of the retired type 2 exactly as older builds wrote it (real
  // corpus-index payload, valid CRC).
  const std::string retired = test::HexToBytes(test::kRetiredCorpusRecordHex);
  for (const std::string& unknown : {future, retired}) {
    const std::string records =
        test::FramedCacheRecord(SampleCacheEntry(1)) + unknown +
        test::FramedCacheRecord(SampleCacheEntry(2)) + unknown;
    {
      StoreState loaded;
      LoadStats stats;
      ASSERT_TRUE(DecodeJournal(EncodeJournalHeader(kConfig) + records,
                                kConfig, &loaded, &stats)
                      .ok());
      ASSERT_EQ(loaded.cache_entries.size(), 2u);
      EXPECT_EQ(loaded.cache_entries[0], SampleCacheEntry(1));
      EXPECT_EQ(loaded.cache_entries[1], SampleCacheEntry(2));
      EXPECT_EQ(stats.journal_records, 4u);
      EXPECT_EQ(stats.dropped_records, 2u);
    }
    {
      StoreState loaded;
      LoadStats stats;
      ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(StoreState{}, kConfig) + records,
                                 kConfig, &loaded, &stats)
                      .ok());
      ASSERT_EQ(loaded.cache_entries.size(), 2u);
      EXPECT_EQ(loaded.cache_entries[0], SampleCacheEntry(1));
      EXPECT_EQ(loaded.cache_entries[1], SampleCacheEntry(2));
      EXPECT_EQ(stats.snapshot_records, 4u);
      EXPECT_EQ(stats.dropped_records, 2u);
    }
  }
}

// --- PersistentStore ------------------------------------------------------

TEST(PersistentStoreTest, AppendsReplayAcrossReopen) {
  const std::string dir = TempStoreDir("replay");
  {
    StoreState state;
    LoadStats stats;
    auto store = PersistentStore::Open(dir, kConfig, &state, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_FALSE(stats.snapshot_present);
    ASSERT_TRUE((*store)->AppendCache(SampleCacheEntry(1)).ok());
    ASSERT_TRUE((*store)->AppendCache(SampleCacheEntry(2)).ok());
    EXPECT_EQ((*store)->appends_since_compact(), 2u);
  }
  StoreState state;
  LoadStats stats;
  auto store = PersistentStore::Open(dir, kConfig, &state, &stats);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ(state.cache_entries.size(), 2u);
  EXPECT_EQ(state.cache_entries[0], SampleCacheEntry(1));
  EXPECT_EQ(state.cache_entries[1], SampleCacheEntry(2));
  EXPECT_TRUE(stats.journal_present);
  EXPECT_EQ(stats.journal_records, 2u);
}

TEST(PersistentStoreTest, CompactMovesStateIntoSnapshotAndResetsJournal) {
  const std::string dir = TempStoreDir("compact");
  StoreState state;
  LoadStats stats;
  auto opened = PersistentStore::Open(dir, kConfig, &state, &stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  PersistentStore& store = **opened;
  ASSERT_TRUE(store.AppendCache(SampleCacheEntry(1)).ok());

  StoreState full;
  full.cache_entries.push_back(SampleCacheEntry(1));
  full.cache_entries.push_back(SampleCacheEntry(3));
  ASSERT_TRUE(store.Compact(full).ok());
  EXPECT_EQ(store.appends_since_compact(), 0u);
  // Post-compact appends land in the fresh journal.
  ASSERT_TRUE(store.AppendCache(SampleCacheEntry(2)).ok());

  StoreState reloaded;
  LoadStats reload_stats;
  ASSERT_TRUE(
      PersistentStore::LoadState(dir, kConfig, &reloaded, &reload_stats).ok());
  EXPECT_EQ(reload_stats.snapshot_records, 2u);
  EXPECT_EQ(reload_stats.journal_records, 1u);
  ASSERT_EQ(reloaded.cache_entries.size(), 3u);
  EXPECT_EQ(reloaded.cache_entries[0], SampleCacheEntry(1));
  EXPECT_EQ(reloaded.cache_entries[1], SampleCacheEntry(3));
  EXPECT_EQ(reloaded.cache_entries[2], SampleCacheEntry(2));
}

TEST(PersistentStoreTest, CorruptSnapshotIsQuarantinedAndStartsCold) {
  const std::string dir = TempStoreDir("quarantine");
  {
    StoreState state;
    LoadStats stats;
    auto store = PersistentStore::Open(dir, kConfig, &state, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    StoreState full;
    full.cache_entries.push_back(SampleCacheEntry());
    ASSERT_TRUE((*store)->Compact(full).ok());
  }
  const std::string snapshot = dir + "/snapshot.qms";
  Result<std::string> bytes = ReadFile(snapshot);
  ASSERT_TRUE(bytes.ok());
  std::string mangled = *bytes;
  mangled[mangled.size() - 3] =
      static_cast<char>(mangled[mangled.size() - 3] ^ 0xFF);
  ASSERT_TRUE(WriteFile(snapshot, mangled).ok());

  // LoadState (read-only) reports the loss...
  StoreState state;
  LoadStats stats;
  Status loaded = PersistentStore::LoadState(dir, kConfig, &state, &stats);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss);

  // ...while Open() quarantines and serves a usable cold store.
  state = StoreState{};
  stats = LoadStats{};
  auto store = PersistentStore::Open(dir, kConfig, &state, &stats);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(stats.started_cold);
  EXPECT_TRUE(state.cache_entries.empty());
  EXPECT_FALSE(FileExists(snapshot));
  EXPECT_TRUE(FileExists(snapshot + ".corrupt"));
  ASSERT_TRUE((*store)->AppendCache(SampleCacheEntry(9)).ok());
  std::remove((snapshot + ".corrupt").c_str());
}

TEST(PersistentStoreTest, ConfigChangeResetsJournalSoNewAppendsSurvive) {
  const std::string dir = TempStoreDir("reconfig");
  {
    StoreState state;
    LoadStats stats;
    auto store = PersistentStore::Open(dir, kConfig, &state, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->AppendCache(SampleCacheEntry(1)).ok());
  }
  // Reopen under a different config: the old journal's entries are dropped,
  // and the journal header is rewritten so the new appends are trusted on
  // the *next* load instead of being poisoned behind a stale header.
  const uint64_t new_config = kConfig ^ 0xABCD;
  {
    StoreState state;
    LoadStats stats;
    auto store = PersistentStore::Open(dir, new_config, &state, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_TRUE(state.cache_entries.empty());
    EXPECT_TRUE(stats.journal_config_mismatch);
    CacheEntryRec rec = SampleCacheEntry(2);
    rec.config_hash = new_config;
    ASSERT_TRUE((*store)->AppendCache(rec).ok());
  }
  StoreState state;
  LoadStats stats;
  ASSERT_TRUE(
      PersistentStore::LoadState(dir, new_config, &state, &stats).ok());
  ASSERT_EQ(state.cache_entries.size(), 1u);
  EXPECT_EQ(state.cache_entries[0].config_hash, new_config);
  EXPECT_FALSE(stats.journal_config_mismatch);
}

TEST(PersistentStoreTest, UpsertReplayIsIdempotentAndLastWins) {
  // The crash-consistency argument rests on this: replaying journal records
  // that the snapshot already contains must land on the same state.
  const std::string dir = TempStoreDir("idempotent");
  StoreState state;
  LoadStats stats;
  auto opened = PersistentStore::Open(dir, kConfig, &state, &stats);
  ASSERT_TRUE(opened.ok()) << opened.status();
  StoreState full;
  full.cache_entries.push_back(SampleCacheEntry(1));
  ASSERT_TRUE((*opened)->Compact(full).ok());
  // Same key appended again post-snapshot (what a crash between snapshot
  // rename and journal reset leaves behind).
  ASSERT_TRUE((*opened)->AppendCache(SampleCacheEntry(1)).ok());

  StoreState reloaded;
  LoadStats reload_stats;
  ASSERT_TRUE(
      PersistentStore::LoadState(dir, kConfig, &reloaded, &reload_stats).ok());
  // Two records decoded; the consumer's upsert collapses them to one —
  // order in the stream is snapshot first, journal second, so last-wins
  // keeps the journal copy (here: identical).
  ASSERT_EQ(reloaded.cache_entries.size(), 2u);
  EXPECT_EQ(reloaded.cache_entries[0], reloaded.cache_entries[1]);
}

}  // namespace
}  // namespace qmatch::persist
