// ReplicationLog semantics (DESIGN.md §15) plus the replication wire
// codecs. The load-bearing properties:
//
//  * sequence 1 is the reserved genesis position — a brand-new subscriber
//    asking from 1 ALWAYS takes a snapshot anchor (Fetch == false), which
//    is what carries primary state that predates the log (warm-started
//    cache, preloaded schemas) to a standby;
//  * the ring keeps the most recent `capacity` records; asking below the
//    retained base is an anchor, asking past the head is caught-up;
//  * the listener fires under the log mutex, so SetListener(nullptr) is a
//    teardown barrier;
//  * the codecs reject truncation and hostile counts before reserving.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "replica/log.h"
#include "replica/wire.h"

namespace qmatch::replica {
namespace {

TEST(ReplicationLogTest, GenesisSubscriberAlwaysNeedsAnAnchor) {
  ReplicationLog log(8);
  EXPECT_EQ(log.head_seq(), 1u);  // genesis: nothing appended yet
  EXPECT_EQ(log.base_seq(), 0u);
  EXPECT_EQ(log.size(), 0u);

  std::vector<LogRecord> batch;
  // from_seq = 1 predates everything the log can ever serve.
  EXPECT_FALSE(log.Fetch(1, 16, &batch));
  // from_seq = 2 is the next sequence to be written: caught up, empty.
  EXPECT_TRUE(log.Fetch(2, 16, &batch));
  EXPECT_TRUE(batch.empty());
}

TEST(ReplicationLogTest, AppendAssignsSequencesFromTwo) {
  ReplicationLog log(8);
  EXPECT_EQ(log.Append(1, "a"), 2u);
  EXPECT_EQ(log.Append(2, "b"), 3u);
  EXPECT_EQ(log.head_seq(), 3u);
  EXPECT_EQ(log.base_seq(), 2u);

  // A subscriber at genesis still anchors: record 1 never existed, and the
  // anchor covers everything anyway.
  std::vector<LogRecord> batch;
  EXPECT_FALSE(log.Fetch(1, 16, &batch));

  ASSERT_TRUE(log.Fetch(2, 16, &batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].seq, 2u);
  EXPECT_EQ(batch[0].type, 1u);
  EXPECT_EQ(batch[0].payload, "a");
  EXPECT_EQ(batch[1].seq, 3u);
  EXPECT_EQ(batch[1].payload, "b");
}

TEST(ReplicationLogTest, FetchRespectsBatchSizeAndStaysConsecutive) {
  ReplicationLog log(16);
  for (int i = 0; i < 10; ++i) log.Append(1, std::to_string(i));
  std::vector<LogRecord> batch;
  ASSERT_TRUE(log.Fetch(4, 3, &batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].seq, 4u);
  EXPECT_EQ(batch[1].seq, 5u);
  EXPECT_EQ(batch[2].seq, 6u);
}

TEST(ReplicationLogTest, FetchPastHeadIsCaughtUpNotAnError) {
  ReplicationLog log(8);
  log.Append(1, "x");  // seq 2
  std::vector<LogRecord> batch;
  EXPECT_TRUE(log.Fetch(3, 16, &batch));
  EXPECT_TRUE(batch.empty());
}

TEST(ReplicationLogTest, EvictionMovesTheBaseAndForcesAnchors) {
  ReplicationLog log(4);
  for (int i = 0; i < 8; ++i) log.Append(1, std::to_string(i));
  // Sequences 2..9 were assigned; only 6..9 are retained.
  EXPECT_EQ(log.head_seq(), 9u);
  EXPECT_EQ(log.base_seq(), 6u);
  EXPECT_EQ(log.size(), 4u);

  std::vector<LogRecord> batch;
  EXPECT_FALSE(log.Fetch(5, 16, &batch));  // evicted: snapshot anchor
  ASSERT_TRUE(log.Fetch(6, 16, &batch));   // retained base: log catch-up
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.front().seq, 6u);
  EXPECT_EQ(batch.back().seq, 9u);
}

TEST(ReplicationLogTest, ListenerSeesEveryAppendAndDetachStops) {
  ReplicationLog log(8);
  std::vector<uint64_t> heads;
  log.SetListener([&heads](uint64_t head) { heads.push_back(head); });
  log.Append(1, "a");
  log.Append(1, "b");
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], 2u);
  EXPECT_EQ(heads[1], 3u);

  // Detached: the listener runs under the log mutex, so once SetListener
  // returns no further invocation can be in flight.
  log.SetListener(nullptr);
  log.Append(1, "c");
  EXPECT_EQ(heads.size(), 2u);
}

// --- wire codecs -----------------------------------------------------------

TEST(ReplicaWireTest, SubscribeReqRoundTrips) {
  SubscribeReq req;
  req.from_seq = 0xDEADBEEFCAFEull;
  SubscribeReq back;
  ASSERT_TRUE(Decode(Encode(req), &back));
  EXPECT_EQ(back.from_seq, req.from_seq);

  SubscribeReq sink;
  EXPECT_FALSE(Decode("", &sink));
  EXPECT_FALSE(Decode("short", &sink));
  // Trailing garbage is rejected, not ignored.
  EXPECT_FALSE(Decode(Encode(req) + "x", &sink));
}

TEST(ReplicaWireTest, SchemaRecRoundTrips) {
  SchemaRec rec;
  rec.name = "PO1";
  rec.xsd_text = "<xsd:schema/>";
  SchemaRec back;
  ASSERT_TRUE(Decode(Encode(rec), &back));
  EXPECT_EQ(back, rec);
}

TEST(ReplicaWireTest, RecordsMsgRoundTripsIncludingHeartbeat) {
  RecordsMsg msg;
  msg.head_seq = 42;
  msg.records.push_back(LogRecord{7, 1, std::string("\x00\x01payload", 9)});
  msg.records.push_back(LogRecord{8, 3, ""});

  RecordsMsg back;
  ASSERT_TRUE(Decode(Encode(msg), &back));
  EXPECT_EQ(back.head_seq, 42u);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].seq, 7u);
  EXPECT_EQ(back.records[0].type, 1u);
  EXPECT_EQ(back.records[0].payload, msg.records[0].payload);
  EXPECT_EQ(back.records[1].seq, 8u);

  // The heartbeat: an empty batch carrying only the head.
  RecordsMsg beat;
  beat.head_seq = 99;
  RecordsMsg beat_back;
  ASSERT_TRUE(Decode(Encode(beat), &beat_back));
  EXPECT_EQ(beat_back.head_seq, 99u);
  EXPECT_TRUE(beat_back.records.empty());
}

TEST(ReplicaWireTest, RecordsMsgRejectsTruncationAndHostileCounts) {
  RecordsMsg msg;
  msg.head_seq = 1;
  msg.records.push_back(LogRecord{2, 1, "abc"});
  const std::string encoded = Encode(msg);

  RecordsMsg sink;
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(Decode(encoded.substr(0, cut), &sink))
        << "truncation at " << cut << " decoded";
  }

  // A count field claiming 2^32 - 1 records against a tiny remainder must
  // be rejected before any reserve.
  std::string hostile(8, '\0');         // head_seq = 0
  hostile += std::string("\xFF\xFF\xFF\xFF", 4);  // count = UINT32_MAX
  EXPECT_FALSE(Decode(hostile, &sink));
}

TEST(ReplicaWireTest, SnapshotMsgRoundTripsAndRejectsHostileCounts) {
  SnapshotMsg msg;
  msg.next_seq = 17;
  msg.schemas.push_back(SchemaRec{"A", "<a/>"});
  msg.schemas.push_back(SchemaRec{"B", "<b/>"});
  msg.cache_payloads.push_back("cache-rec-1");
  msg.cache_payloads.push_back("cache-rec-2");

  SnapshotMsg back;
  ASSERT_TRUE(Decode(Encode(msg), &back));
  EXPECT_EQ(back.next_seq, 17u);
  ASSERT_EQ(back.schemas.size(), 2u);
  EXPECT_EQ(back.schemas[0], msg.schemas[0]);
  EXPECT_EQ(back.schemas[1], msg.schemas[1]);
  ASSERT_EQ(back.cache_payloads.size(), 2u);
  EXPECT_EQ(back.cache_payloads[0], "cache-rec-1");
  EXPECT_EQ(back.cache_payloads[1], "cache-rec-2");

  SnapshotMsg sink;
  const std::string encoded = Encode(msg);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(Decode(encoded.substr(0, cut), &sink))
        << "truncation at " << cut << " decoded";
  }

  std::string hostile(8, '\0');         // next_seq = 0
  hostile += std::string("\xFF\xFF\xFF\xFF", 4);  // schema count = UINT32_MAX
  EXPECT_FALSE(Decode(hostile, &sink));
}

}  // namespace
}  // namespace qmatch::replica
