// Error-path tests for the typed MatchEngine request API: per-job status
// containment in the batch fan-out of one query against in-memory corpus
// schemas, and the deadline/cancellation partial-result contract at the
// API boundary.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/qmatch.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "fault/failpoint.h"
#include "match/soa_kernel.h"
#include "obs/obs.h"
#include "xsd/parser.h"

namespace qmatch::core {
namespace {

using std::chrono::milliseconds;

constexpr char kGoodXsd[] = R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PurchaseOrder">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="City" type="xs:string"/>
        <xs:element name="Street" type="xs:string"/>
        <xs:element name="Zip" type="xs:integer"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
)";

xsd::Schema ParseGood() {
  Result<xsd::Schema> schema = xsd::ParseSchema(kGoodXsd);
  EXPECT_TRUE(schema.ok()) << schema.status();
  return std::move(*schema);
}

MatchEngineOptions EngineOptions(size_t threads, size_t cache_capacity = 0) {
  MatchEngineOptions options;
  options.threads = threads;
  options.cache_capacity = cache_capacity;
  options.min_parallel_pairs = 1;
  return options;
}

class EngineCorpusTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }
};

TEST_F(EngineCorpusTest, AllGoodEntriesSucceedAndAccountingBalances) {
  const xsd::Schema query = datagen::MakePO1();
  const xsd::Schema first = ParseGood();
  const xsd::Schema second = ParseGood();
  const std::vector<MatchJob> jobs = {MatchJob{&query, &first},
                                      MatchJob{&query, &second}};
  for (size_t threads : {1u, 4u}) {
    MatchEngine engine(EngineOptions(threads));
    const std::vector<EngineMatchResult> results =
        engine.MatchAll(jobs, EngineRequestOptions{});
    ASSERT_EQ(results.size(), jobs.size());
    for (const EngineMatchResult& result : results) {
      EXPECT_TRUE(result.ok()) << result.status;
      EXPECT_EQ(result.completed_rows, result.total_rows);
      EXPECT_GT(result.total_rows, 0u);
      EXPECT_GT(result.result.schema_qom, 0.0);
    }
  }
}

TEST_F(EngineCorpusTest, OneOversizedEntryDegradesOnlyItsOwnSlot) {
  // A request budget that fits a small table but not a 600x600 one: the
  // oversized job must come back kResourceExhausted in its own slot while
  // the jobs on either side of it are unaffected.
  datagen::GeneratorOptions gen;
  gen.seed = 7;
  gen.element_count = 600;
  gen.name = "Oversized";
  const xsd::Schema big_source = datagen::GenerateSchema(gen);
  gen.seed = 8;
  const xsd::Schema big_target = datagen::GenerateSchema(gen);
  const xsd::Schema query = datagen::MakePO1();
  const xsd::Schema good = ParseGood();
  const std::vector<MatchJob> jobs = {MatchJob{&query, &good},
                                      MatchJob{&big_source, &big_target},
                                      MatchJob{&query, &good}};
  MatchEngineOptions options = EngineOptions(4);
  options.overload.request_budget_bytes = uint64_t{2} << 20;
  // The engine charges each job's exact table bytes up front (9 per node
  // pair plus the distinct-pair matrices), the request's only charge.
  ASSERT_LT(match::SoaTable::Bytes(query.Flat(), good.Flat()),
            options.overload.request_budget_bytes);
  ASSERT_GT(match::SoaTable::Bytes(big_source.Flat(), big_target.Flat()),
            options.overload.request_budget_bytes);
  MatchEngine engine(options);
  const std::vector<EngineMatchResult> results =
      engine.MatchAll(jobs, EngineRequestOptions{});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok()) << results[0].status;
  EXPECT_EQ(results[1].status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(results[1].result.correspondences.empty());
  EXPECT_TRUE(results[2].ok()) << results[2].status;
  EXPECT_EQ(results[0].result.ToString(), results[2].result.ToString());
}

#if QMATCH_FAULT_ENABLED

TEST_F(EngineCorpusTest, DroppedCacheStoreOnlyCostsRecomputation) {
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  fault::ScopedFailpoint armed("engine.cache.store", spec);
  MatchEngine engine(EngineOptions(1, /*cache_capacity=*/8));
  const xsd::Schema source = datagen::MakePO1();
  const xsd::Schema target = datagen::MakePO2();
  const MatchResult first = engine.Match(source, target);
  const MatchResult second = engine.Match(source, target);
  EXPECT_EQ(engine.cache_stats().hits, 0u);  // nothing ever landed
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  EXPECT_EQ(first.ToString(), second.ToString());
}

#endif  // QMATCH_FAULT_ENABLED

TEST_F(EngineCorpusTest, PreCancelledRequestReturnsTypedEmptyResult) {
  const xsd::Schema source = datagen::MakePO1();
  const xsd::Schema target = datagen::MakePO2();
  MatchEngine engine(EngineOptions(2));
  CancellationToken token;
  token.Cancel();
  EngineRequestOptions options;
  options.cancel = &token;
  const EngineMatchResult result = engine.Match(source, target, options);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(result.completed_rows, 0u);
  EXPECT_EQ(result.total_rows, source.NodeCount());
  EXPECT_TRUE(result.result.correspondences.empty());
}

TEST_F(EngineCorpusTest, ExpiredDeadlineReturnsTypedEmptyResult) {
  const xsd::Schema source = datagen::MakePO1();
  const xsd::Schema target = datagen::MakePO2();
  MatchEngine engine(EngineOptions(1));
  EngineRequestOptions options;
  options.deadline = Deadline::At(Deadline::Clock::now() - milliseconds(1));
  const EngineMatchResult result = engine.Match(source, target, options);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.completed_rows, 0u);
  EXPECT_TRUE(result.result.correspondences.empty());
}

TEST_F(EngineCorpusTest, ExpiredDeadlineBatchStartsNoTable) {
  // Jobs that start after the deadline return at once: no admission, no
  // table, no label matrix — none of which polls the envelope.
  std::vector<xsd::Schema> targets;
  for (int i = 0; i < 4; ++i) targets.push_back(datagen::MakePO2());
  const xsd::Schema query = datagen::MakePO1();
  std::vector<MatchJob> jobs;
  for (const xsd::Schema& target : targets) {
    jobs.push_back(MatchJob{&query, &target});
  }
  MatchEngine engine(EngineOptions(2));
  EngineRequestOptions options;
  options.deadline = Deadline::At(Deadline::Clock::now() - milliseconds(1));
#if QMATCH_OBS_ENABLED
  obs::Counter& tables =
      obs::Registry::Global().GetCounter("qmatch.treematch.tables");
  const uint64_t tables_before = tables.Value();
#endif
  for (const EngineMatchResult& result : engine.MatchAll(jobs, options)) {
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(result.completed_rows, 0u);
    EXPECT_EQ(result.total_rows, query.NodeCount());
    EXPECT_TRUE(result.result.correspondences.empty());
  }
#if QMATCH_OBS_ENABLED
  EXPECT_EQ(tables.Value(), tables_before);
#endif
}

TEST_F(EngineCorpusTest, UnboundedRequestMatchesUntypedPathExactly) {
  const xsd::Schema source = datagen::MakePO1();
  const xsd::Schema target = datagen::MakePO2();
  MatchEngine engine(EngineOptions(2));
  const MatchResult reference = QMatch().Match(source, target);
  const EngineMatchResult typed =
      engine.Match(source, target, EngineRequestOptions{});
  EXPECT_TRUE(typed.ok());
  EXPECT_EQ(typed.completed_rows, typed.total_rows);
  EXPECT_EQ(typed.result.ToString(), reference.ToString());
}

TEST_F(EngineCorpusTest, TypedMatchAllKeepsInputOrderUnderCancellation) {
  std::vector<xsd::Schema> sources;
  std::vector<xsd::Schema> targets;
  for (int i = 0; i < 6; ++i) {
    sources.push_back(datagen::MakePO1());
    targets.push_back(datagen::MakePO2());
  }
  std::vector<MatchJob> jobs;
  for (size_t i = 0; i < sources.size(); ++i) {
    jobs.push_back(MatchJob{&sources[i], &targets[i]});
  }
  MatchEngine engine(EngineOptions(4));
  CancellationToken token;
  token.Cancel();
  EngineRequestOptions options;
  options.cancel = &token;
  const std::vector<EngineMatchResult> results = engine.MatchAll(jobs, options);
  ASSERT_EQ(results.size(), jobs.size());
  for (const EngineMatchResult& result : results) {
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
    EXPECT_TRUE(result.result.correspondences.empty());
  }
}

TEST_F(EngineCorpusTest, EmptyBatchIsAnEmptySuccess) {
  MatchEngine engine(EngineOptions(1));
  EXPECT_TRUE(engine.MatchAll({}, EngineRequestOptions{}).empty());
}

}  // namespace
}  // namespace qmatch::core
