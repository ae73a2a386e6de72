// Engine-level persistence tests: warm start from a snapshot/journal
// directory, bit-identical recovered QoM, config-fingerprint drop rules,
// stores holding the retired corpus record type, and the periodic-compaction
// cadence. Crash-point recovery lives in persist_recovery_test.cpp.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/file_util.h"
#include "common/status.h"
#include "datagen/corpus.h"
#include "persist/store.h"
#include "wire_goldens.h"

namespace qmatch::core {
namespace {

std::string TempPersistDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "qmatch_engine_persist_" +
                          name + "_" + std::to_string(::getpid());
  for (const char* file : {"/snapshot.qms", "/journal.qmj",
                           "/snapshot.qms.corrupt", "/journal.qmj.corrupt"}) {
    std::remove((dir + file).c_str());
  }
  return dir;
}

MatchEngineOptions PersistOptions(const std::string& dir) {
  MatchEngineOptions options;
  options.threads = 1;
  options.persist_dir = dir;
  return options;
}

/// Two results are bit-identical: same QoM bits, same correspondences by
/// path and exact score.
void ExpectBitIdentical(const MatchResult& a, const MatchResult& b) {
  EXPECT_EQ(a.schema_qom, b.schema_qom);
  ASSERT_EQ(a.correspondences.size(), b.correspondences.size());
  for (size_t i = 0; i < a.correspondences.size(); ++i) {
    EXPECT_EQ(a.correspondences[i].source->Path(),
              b.correspondences[i].source->Path());
    EXPECT_EQ(a.correspondences[i].target->Path(),
              b.correspondences[i].target->Path());
    EXPECT_EQ(a.correspondences[i].score, b.correspondences[i].score);
  }
}

TEST(EnginePersistTest, WarmStartServesBitIdenticalResultsFromDisk) {
  const std::string dir = TempPersistDir("warm");
  const xsd::Schema po1 = datagen::MakePO1();
  const xsd::Schema po2 = datagen::MakePO2();
  const xsd::Schema article = datagen::MakeArticle();
  const xsd::Schema book = datagen::MakeBook();

  MatchResult fresh_po;
  MatchResult fresh_books;
  {
    MatchEngine engine(PersistOptions(dir));
    ASSERT_TRUE(engine.persist_enabled());
    fresh_po = engine.Match(po1, po2);
    fresh_books = engine.Match(article, book);
    // Destructor compacts the journal into the snapshot.
  }
  ASSERT_TRUE(FileExists(dir + "/snapshot.qms"));

  MatchEngine warm(PersistOptions(dir));
  ASSERT_TRUE(warm.persist_enabled());
  EXPECT_EQ(warm.cache_stats().entries, 2u);
  EXPECT_FALSE(warm.persist_load_stats().started_cold);

  const MatchResult warm_po = warm.Match(po1, po2);
  const MatchResult warm_books = warm.Match(article, book);
  // Both must be cache hits (no recomputation)...
  EXPECT_EQ(warm.cache_stats().hits, 2u);
  EXPECT_EQ(warm.cache_stats().misses, 0u);
  // ...and bit-identical to the pre-restart compute.
  ExpectBitIdentical(warm_po, fresh_po);
  ExpectBitIdentical(warm_books, fresh_books);
}

TEST(EnginePersistTest, ConfigChangeDropsRecoveredEntries) {
  const std::string dir = TempPersistDir("reconfig");
  const xsd::Schema po1 = datagen::MakePO1();
  const xsd::Schema po2 = datagen::MakePO2();
  {
    MatchEngine engine(PersistOptions(dir));
    (void)engine.Match(po1, po2);
  }
  // Same directory, different config: the persisted entries carry the old
  // config fingerprint and must never be served.
  QMatchConfig config;
  config.threshold += 0.07;
  MatchEngine engine(config, PersistOptions(dir));
  ASSERT_TRUE(engine.persist_enabled());
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  (void)engine.Match(po1, po2);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
}

TEST(EnginePersistTest, LruRecencySurvivesRestartThroughCapacityEviction) {
  const std::string dir = TempPersistDir("lru");
  const xsd::Schema po1 = datagen::MakePO1();
  const xsd::Schema po2 = datagen::MakePO2();
  const xsd::Schema article = datagen::MakeArticle();
  const xsd::Schema book = datagen::MakeBook();
  const xsd::Schema item = datagen::MakeDcmdItem();
  const xsd::Schema order = datagen::MakeDcmdOrder();
  {
    MatchEngineOptions options = PersistOptions(dir);
    MatchEngine engine(options);
    (void)engine.Match(po1, po2);      // oldest
    (void)engine.Match(article, book);
    (void)engine.Match(item, order);   // most recent
  }
  // Restart with capacity 2: replaying oldest-first must evict the PO pair
  // (the least recently used before shutdown), not a newer one.
  MatchEngineOptions options = PersistOptions(dir);
  options.cache_capacity = 2;
  MatchEngine warm(options);
  EXPECT_EQ(warm.cache_stats().entries, 2u);
  (void)warm.Match(article, book);
  (void)warm.Match(item, order);
  EXPECT_EQ(warm.cache_stats().hits, 2u);
  (void)warm.Match(po1, po2);
  EXPECT_EQ(warm.cache_stats().misses, 1u);
}

TEST(EnginePersistTest, StoreWithRetiredCorpusRecordsOpensWarm) {
  // A store written before the corpus record type (2) was retired: cache
  // records with type-2 records between them, in the snapshot and in the
  // journal. Every cache record must load and serve warm; the type-2
  // records are skipped and counted.
  const std::string dir = TempPersistDir("retired_corpus");
  const xsd::Schema po1 = datagen::MakePO1();
  const xsd::Schema po2 = datagen::MakePO2();
  const xsd::Schema article = datagen::MakeArticle();
  const xsd::Schema book = datagen::MakeBook();
  MatchResult fresh_po;
  MatchResult fresh_books;
  persist::StoreState fresh_state;
  uint64_t config_hash = 0;
  {
    MatchEngine engine(PersistOptions(TempPersistDir("retired_corpus_src")));
    fresh_po = engine.Match(po1, po2);
    fresh_books = engine.Match(article, book);
    fresh_state = engine.ExportState();
    config_hash = engine.config_hash();
  }
  ASSERT_EQ(fresh_state.cache_entries.size(), 2u);
  const std::string retired = test::HexToBytes(test::kRetiredCorpusRecordHex);
  persist::StoreState first;
  first.cache_entries.push_back(fresh_state.cache_entries[0]);
  ASSERT_TRUE(EnsureDir(dir).ok());
  ASSERT_TRUE(WriteFile(dir + "/snapshot.qms",
                        persist::EncodeSnapshot(first, config_hash) + retired +
                            test::FramedCacheRecord(
                                fresh_state.cache_entries[1]) +
                            retired)
                  .ok());
  ASSERT_TRUE(WriteFile(dir + "/journal.qmj",
                        persist::EncodeJournalHeader(config_hash) + retired +
                            test::FramedCacheRecord(
                                fresh_state.cache_entries[0]) +
                            retired)
                  .ok());

  MatchEngine warm(PersistOptions(dir));
  ASSERT_TRUE(warm.persist_enabled());
  const persist::LoadStats& stats = warm.persist_load_stats();
  EXPECT_FALSE(stats.started_cold);
  EXPECT_EQ(stats.snapshot_records, 4u);
  EXPECT_EQ(stats.journal_records, 3u);
  EXPECT_EQ(stats.dropped_records, 4u);
  EXPECT_EQ(warm.cache_stats().entries, 2u);
  ExpectBitIdentical(warm.Match(po1, po2), fresh_po);
  ExpectBitIdentical(warm.Match(article, book), fresh_books);
  EXPECT_EQ(warm.cache_stats().hits, 2u);
  EXPECT_EQ(warm.cache_stats().misses, 0u);
}

TEST(EnginePersistTest, PeriodicCompactionFoldsJournalIntoSnapshot) {
  const std::string dir = TempPersistDir("cadence");
  const xsd::Schema po1 = datagen::MakePO1();
  const xsd::Schema po2 = datagen::MakePO2();
  const xsd::Schema article = datagen::MakeArticle();
  const xsd::Schema book = datagen::MakeBook();
  MatchEngineOptions options = PersistOptions(dir);
  options.persist_compact_interval = 1;  // compact after every append
  MatchEngine engine(options);
  (void)engine.Match(po1, po2);
  ASSERT_TRUE(FileExists(dir + "/snapshot.qms"));
  (void)engine.Match(article, book);
  // Both entries live in the snapshot; the journal is freshly reset.
  persist::StoreState state;
  persist::LoadStats stats;
  ASSERT_TRUE(persist::PersistentStore::LoadState(dir, engine.config_hash(),
                                                  &state, &stats)
                  .ok());
  EXPECT_EQ(stats.snapshot_records, 2u);
  EXPECT_EQ(stats.journal_records, 0u);
}

TEST(EnginePersistTest, CompactWithoutPersistenceIsTypedNoOp) {
  // CompactPersist on an engine without persistence is a typed no-op.
  MatchEngineOptions options;
  options.threads = 1;
  MatchEngine engine(options);
  EXPECT_FALSE(engine.persist_enabled());
  EXPECT_TRUE(engine.CompactPersist().ok());
}

}  // namespace
}  // namespace qmatch::core
