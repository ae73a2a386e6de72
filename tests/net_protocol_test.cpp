// Wire-format conformance for the qmatchd frame protocol (DESIGN.md §14):
//
//  * frames and every request/response payload round-trip byte-exactly,
//    with doubles travelling as IEEE-754 bit patterns (NaN payloads, -0.0
//    and denormals survive);
//  * hostile lengths — the frame length field and every in-payload vector
//    count — are rejected *before* any allocation sized from them;
//  * a CRC mismatch yields a typed error frame and a clean close, never a
//    silent drop;
//  * loopback conformance: a real server on an ephemeral port answers
//    every request with a typed frame, responses arrive in request order,
//    and a MatchPair response is bit-identical to the same match run
//    in-process.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "fault/failpoint.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "test_util.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

namespace qmatch::net {
namespace {

// Doubles whose bit patterns a value-preserving codec could mangle: a
// quiet NaN with payload bits, signalling-NaN pattern, -0.0, a denormal,
// and infinities.
const uint64_t kHostileDoubleBits[] = {
    0x7FF8DEADBEEF0123ull, 0x7FF0000000000001ull, 0x8000000000000000ull,
    0x0000000000000001ull, 0x7FF0000000000000ull, 0xFFF0000000000000ull,
};

std::string CorpusXsd(size_t index) {
  const auto& entries = datagen::Corpus();
  return xsd::ToXsd(entries[index % entries.size()].make());
}

std::string CorpusName(size_t index) {
  const auto& entries = datagen::Corpus();
  return entries[index % entries.size()].name;
}

TEST(FrameTest, RoundTripsTypeAndPayload) {
  const std::string bytes = EncodeFrame(MsgType::kMatchPair, "hello frame");
  Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes, &frame, &consumed), FrameDecodeResult::kFrame);
  EXPECT_EQ(frame.type, static_cast<uint32_t>(MsgType::kMatchPair));
  EXPECT_EQ(frame.payload, "hello frame");
  EXPECT_EQ(consumed, bytes.size());
}

TEST(FrameTest, EveryPrefixNeedsMoreBytes) {
  const std::string bytes = EncodeFrame(MsgType::kGetStats, "payload");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame frame;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(std::string_view(bytes).substr(0, cut), &frame,
                          &consumed),
              FrameDecodeResult::kNeedMore)
        << "prefix length " << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(FrameTest, DecodeLeavesFollowingFrameUntouched) {
  std::string stream = EncodeFrame(MsgType::kGetStats, "first");
  const size_t first_size = stream.size();
  stream += EncodeFrame(MsgType::kGetMetrics, "second");
  Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(stream, &frame, &consumed), FrameDecodeResult::kFrame);
  EXPECT_EQ(frame.payload, "first");
  EXPECT_EQ(consumed, first_size);
  stream.erase(0, consumed);
  ASSERT_EQ(DecodeFrame(stream, &frame, &consumed), FrameDecodeResult::kFrame);
  EXPECT_EQ(frame.payload, "second");
}

TEST(FrameTest, HostileLengthRejectedFromHeaderAlone) {
  // Eight bytes of header claiming a 4 GiB payload: the decoder must reject
  // from the header alone — before any buffer could be grown to hold it.
  std::string header;
  const uint32_t type = 2;
  const uint32_t length = 0xFFFFFFFFu;
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((type >> shift) & 0xFF));
  }
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(header, &frame, &consumed),
            FrameDecodeResult::kBadLength);
}

TEST(FrameTest, LengthJustOverCapRejected) {
  std::string header;
  const uint32_t length = kMaxFramePayload + 1;
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((1u >> shift) & 0xFF));
  }
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(header, &frame, &consumed),
            FrameDecodeResult::kBadLength);
}

TEST(FrameTest, CorruptionAnywhereIsCaught) {
  const std::string clean = EncodeFrame(MsgType::kMatchPair, "payload bytes");
  // Flip one bit at every byte position; the type, length, payload and CRC
  // fields must all be covered by the checksum (a corrupted length may also
  // legitimately surface as kBadLength or an incomplete frame).
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string bent = clean;
    bent[i] = static_cast<char>(bent[i] ^ 0x20);
    Frame frame;
    size_t consumed = 0;
    const FrameDecodeResult result = DecodeFrame(bent, &frame, &consumed);
    EXPECT_NE(result, FrameDecodeResult::kFrame) << "byte " << i;
  }
}

TEST(PayloadTest, RequestsRoundTrip) {
  SubmitSchemaReq submit{"po1", "<xsd..>"};
  SubmitSchemaReq submit2;
  ASSERT_TRUE(Decode(Encode(submit), &submit2));
  EXPECT_EQ(submit2.name, "po1");
  EXPECT_EQ(submit2.xsd_text, "<xsd..>");

  MatchPairReq pair{"a", "b", 1500};
  MatchPairReq pair2;
  ASSERT_TRUE(Decode(Encode(pair), &pair2));
  EXPECT_EQ(pair2.source, "a");
  EXPECT_EQ(pair2.target, "b");
  EXPECT_EQ(pair2.deadline_ms, 1500u);

  MatchCorpusReq corpus{"query", 250};
  MatchCorpusReq corpus2;
  ASSERT_TRUE(Decode(Encode(corpus), &corpus2));
  EXPECT_EQ(corpus2.query, "query");
  EXPECT_EQ(corpus2.deadline_ms, 250u);
}

TEST(PayloadTest, RequestDecodersRejectTrailingBytes) {
  std::string bytes = Encode(MatchPairReq{"a", "b", 0});
  bytes.push_back('\0');
  MatchPairReq out;
  EXPECT_FALSE(Decode(bytes, &out));
}

TEST(PayloadTest, MatchPairRespPreservesDoubleBitPatterns) {
  MatchPairResp resp;
  resp.head = ResponseHead{0, ""};
  resp.algorithm = "qmatch-hybrid";
  resp.mode = 2;
  resp.completed_rows = 7;
  resp.total_rows = 9;
  for (const uint64_t bits : kHostileDoubleBits) {
    resp.correspondences.push_back(WireCorrespondence{
        "/a/b", "/c/d", std::bit_cast<double>(bits)});
  }
  resp.schema_qom = std::bit_cast<double>(kHostileDoubleBits[0]);

  MatchPairResp decoded;
  ASSERT_TRUE(Decode(Encode(resp), &decoded));
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded.schema_qom),
            kHostileDoubleBits[0]);
  ASSERT_EQ(decoded.correspondences.size(), std::size(kHostileDoubleBits));
  for (size_t i = 0; i < std::size(kHostileDoubleBits); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded.correspondences[i].score),
              kHostileDoubleBits[i])
        << "double " << i;
    EXPECT_EQ(decoded.correspondences[i].source_path, "/a/b");
    EXPECT_EQ(decoded.correspondences[i].target_path, "/c/d");
  }
  EXPECT_EQ(decoded.mode, 2u);
  EXPECT_EQ(decoded.completed_rows, 7u);
  EXPECT_EQ(decoded.total_rows, 9u);
}

TEST(PayloadTest, CorrespondencesWithEmptyPathsRoundTrip) {
  // A correspondence encodes to at least 16 bytes: two empty paths' length
  // prefixes and a double. Paths totalling fewer than 4 bytes are legal,
  // and the count pre-check must not reject them.
  MatchPairResp resp;
  resp.algorithm = "qmatch-hybrid";
  resp.correspondences = {{"", "", 0.5}, {"a", "", 0.25}, {"", "bc", 1.0}};
  MatchPairResp decoded;
  ASSERT_TRUE(Decode(Encode(resp), &decoded));
  EXPECT_EQ(decoded, resp);
  EXPECT_EQ(persist::MinEncodedSize<WireCorrespondence>(), 16u);
}

TEST(PayloadTest, HostileCorrespondenceCountRejectedBeforeReserve) {
  // A valid head + fields, then a count field claiming ~16M entries with
  // almost no bytes behind it: the decoder must refuse before reserving.
  MatchPairResp resp;
  resp.head = ResponseHead{0, ""};
  std::string bytes = Encode(resp);
  // Rewrite the trailing u32 count (last 4 bytes of an empty-vector
  // payload) to a hostile value.
  ASSERT_GE(bytes.size(), 4u);
  bytes[bytes.size() - 4] = static_cast<char>(0xFF);
  bytes[bytes.size() - 3] = static_cast<char>(0xFF);
  bytes[bytes.size() - 2] = static_cast<char>(0xFF);
  bytes[bytes.size() - 1] = static_cast<char>(0x00);
  MatchPairResp out;
  EXPECT_FALSE(Decode(bytes, &out));
}

TEST(PayloadTest, HostileCorpusEntryCountRejectedBeforeReserve) {
  MatchCorpusResp resp;
  resp.head = ResponseHead{0, ""};
  std::string bytes = Encode(resp);
  ASSERT_GE(bytes.size(), 4u);
  bytes[bytes.size() - 4] = static_cast<char>(0xFF);
  bytes[bytes.size() - 3] = static_cast<char>(0xFF);
  bytes[bytes.size() - 2] = static_cast<char>(0xFF);
  bytes[bytes.size() - 1] = static_cast<char>(0x00);
  MatchCorpusResp out;
  EXPECT_FALSE(Decode(bytes, &out));
}

TEST(PayloadTest, ErrorHeadRoundTripsThroughEveryResponseDecoder) {
  const ResponseHead head = ResponseHead::FromStatus(
      Status::Overloaded("engine shed this request"));
  const std::string bytes = Encode(head);
  ResponseHead decoded;
  ASSERT_TRUE(Decode(bytes, &decoded));
  EXPECT_EQ(decoded.status_code(), StatusCode::kOverloaded);
  EXPECT_EQ(decoded.message, "engine shed this request");
  EXPECT_EQ(decoded.ToStatus().code(), StatusCode::kOverloaded);

  // SubmitSchemaResp's body is conditional on an OK head, so an error head
  // alone is a complete, decodable payload for it too.
  SubmitSchemaResp submit;
  ASSERT_TRUE(Decode(Encode(SubmitSchemaResp{head, 0, 0}), &submit));
  EXPECT_EQ(submit.head.status_code(), StatusCode::kOverloaded);
}

TEST(PayloadTest, StatsAndMetricsRoundTrip) {
  StatsResp stats;
  stats.schemas = 12;
  stats.cache_hits = 34;
  stats.cache_misses = 56;
  stats.cache_entries = 7;
  stats.admission_shed = 8;
  stats.requests_total = 90;
  stats.connections_active = 3;
  stats.pressure = 0.625;
  StatsResp stats2;
  ASSERT_TRUE(Decode(Encode(stats), &stats2));
  EXPECT_EQ(stats2.schemas, 12u);
  EXPECT_EQ(stats2.cache_hits, 34u);
  EXPECT_EQ(stats2.cache_misses, 56u);
  EXPECT_EQ(stats2.cache_entries, 7u);
  EXPECT_EQ(stats2.admission_shed, 8u);
  EXPECT_EQ(stats2.requests_total, 90u);
  EXPECT_EQ(stats2.connections_active, 3u);
  EXPECT_DOUBLE_EQ(stats2.pressure, 0.625);

  MetricsResp metrics;
  metrics.prometheus_text = "# TYPE x counter\nx 1\n";
  MetricsResp metrics2;
  ASSERT_TRUE(Decode(Encode(metrics), &metrics2));
  EXPECT_EQ(metrics2.prometheus_text, metrics.prometheus_text);
}

// --- loopback conformance --------------------------------------------------

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    server_ = std::make_unique<Server>(engine_.get(), ServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  Client Connect() {
    Result<Client> client = Client::Connect(
        "127.0.0.1", server_->port(), test::Scaled(std::chrono::seconds(5)));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : Client();
  }

  std::unique_ptr<core::MatchEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(LoopbackTest, SubmitMatchStatsMetricsConformance) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());

  const std::string name_a = CorpusName(0);
  const std::string name_b = CorpusName(1);
  Result<SubmitSchemaResp> submit_a = client.SubmitSchema(name_a, CorpusXsd(0));
  ASSERT_TRUE(submit_a.ok()) << submit_a.status().ToString();
  ASSERT_TRUE(submit_a->head.ok()) << submit_a->head.message;
  EXPECT_GT(submit_a->node_count, 0u);
  EXPECT_NE(submit_a->fingerprint, 0u);

  Result<SubmitSchemaResp> submit_b = client.SubmitSchema(name_b, CorpusXsd(1));
  ASSERT_TRUE(submit_b.ok());
  ASSERT_TRUE(submit_b->head.ok());

  Result<MatchPairResp> match = client.MatchPair(name_a, name_b);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  ASSERT_EQ(match->head.status_code(), StatusCode::kOk)
      << match->head.message;
  EXPECT_FALSE(match->correspondences.empty());

  // The acceptance criterion: the wire response is bit-identical to the
  // same match executed in-process (fresh engine, same parse options).
  xsd::ParseOptions parse_a;
  parse_a.schema_name = name_a;
  xsd::ParseOptions parse_b;
  parse_b.schema_name = name_b;
  Result<xsd::Schema> ref_a = xsd::ParseSchema(CorpusXsd(0), parse_a);
  Result<xsd::Schema> ref_b = xsd::ParseSchema(CorpusXsd(1), parse_b);
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());
  core::MatchEngine reference(core::MatchEngineOptions{});
  const core::EngineMatchResult expected =
      reference.Match(*ref_a, *ref_b, core::EngineRequestOptions{});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(match->schema_qom),
            std::bit_cast<uint64_t>(expected.result.schema_qom));
  ASSERT_EQ(match->correspondences.size(),
            expected.result.correspondences.size());
  for (size_t i = 0; i < match->correspondences.size(); ++i) {
    const WireCorrespondence& got = match->correspondences[i];
    const Correspondence& want = expected.result.correspondences[i];
    EXPECT_EQ(got.source_path, want.source->Path());
    EXPECT_EQ(got.target_path, want.target->Path());
    EXPECT_EQ(std::bit_cast<uint64_t>(got.score),
              std::bit_cast<uint64_t>(want.score))
        << "correspondence " << i;
  }

  Result<StatsResp> stats = client.GetStats();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->head.ok());
  EXPECT_EQ(stats->schemas, 2u);
  EXPECT_EQ(stats->connections_active, 1u);
  EXPECT_GE(stats->requests_total, 3u);

  Result<MetricsResp> metrics = client.GetMetrics();
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics->head.ok());
#if QMATCH_OBS_ENABLED  // an obs-off build exports no counters
  EXPECT_NE(metrics->prometheus_text.find("net_requests"), std::string::npos);
#endif
}

TEST_F(LoopbackTest, MatchCorpusRanksEverySubmittedCandidate) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  for (size_t i = 0; i < 4; ++i) {
    Result<SubmitSchemaResp> submitted =
        client.SubmitSchema(CorpusName(i), CorpusXsd(i));
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->head.ok()) << submitted->head.message;
  }
  Result<MatchCorpusResp> corpus = client.MatchCorpus(CorpusName(0));
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_TRUE(corpus->head.ok()) << corpus->head.message;
  ASSERT_EQ(corpus->entries.size(), 3u);  // everything but the query
  for (const WireCorpusEntry& entry : corpus->entries) {
    EXPECT_EQ(static_cast<StatusCode>(entry.code), StatusCode::kOk)
        << entry.name;
    EXPECT_NE(entry.name, CorpusName(0));
  }
}

TEST_F(LoopbackTest, UnknownSchemaAnswersTypedNotFound) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  Result<MatchPairResp> match = client.MatchPair("nope", "also-nope");
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->head.status_code(), StatusCode::kNotFound);
}

TEST_F(LoopbackTest, UnparseableSchemaAnswersTypedError) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  Result<SubmitSchemaResp> submit =
      client.SubmitSchema("broken", "this is not an xsd <<<");
  ASSERT_TRUE(submit.ok()) << submit.status().ToString();
  EXPECT_FALSE(submit->head.ok());
  // The connection survives a rejected request.
  Result<StatsResp> stats = client.GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->head.ok());
}

#if QMATCH_FAULT_ENABLED
TEST_F(LoopbackTest, ParserFailpointPropagatesThroughSubmit) {
  // A fault injected at the XSD parser entry must surface as the submit's
  // typed status, exactly like an organic parse failure, register nothing,
  // and leave the next submit of the same schema unaffected.
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  const size_t before = server_->schema_count();
  {
    fault::FaultSpec spec;
    spec.action = fault::FaultAction::kError;
    spec.code = StatusCode::kParseError;
    spec.message = "injected parse failure";
    fault::ScopedFailpoint armed("xsd.parse", spec);
    Result<SubmitSchemaResp> submit =
        client.SubmitSchema(CorpusName(0), CorpusXsd(0));
    ASSERT_TRUE(submit.ok()) << submit.status().ToString();
    EXPECT_EQ(submit->head.status_code(), StatusCode::kParseError);
    EXPECT_NE(submit->head.message.find("injected parse failure"),
              std::string::npos)
        << submit->head.message;
    EXPECT_EQ(armed.stats().fires, 1u);
  }
  EXPECT_EQ(server_->schema_count(), before);
  Result<SubmitSchemaResp> retry =
      client.SubmitSchema(CorpusName(0), CorpusXsd(0));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry->head.ok()) << retry->head.message;
  EXPECT_EQ(server_->schema_count(), before + 1);
}
#endif  // QMATCH_FAULT_ENABLED

TEST_F(LoopbackTest, UnknownRequestTypeAnswersTypedAndKeepsConnection) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendBytes(EncodeFrame(0x42u, "mystery")).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(MsgType::kErrorResp));
  ResponseHead head;
  ASSERT_TRUE(Decode(reply->payload, &head));
  EXPECT_EQ(head.status_code(), StatusCode::kInvalidArgument);
  // Still a working connection afterwards.
  Result<StatsResp> stats = client.GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->head.ok());
}

TEST_F(LoopbackTest, CrcMismatchAnswersTypedErrorFrameThenCloses) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  std::string bent = EncodeFrame(MsgType::kGetStats, "payload");
  bent[9] ^= 0x01;  // flip a payload bit; CRC no longer matches
  ASSERT_TRUE(client.SendBytes(bent).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(MsgType::kErrorResp));
  ResponseHead head;
  ASSERT_TRUE(Decode(reply->payload, &head));
  EXPECT_EQ(head.status_code(), StatusCode::kDataLoss);
  // The stream is desynced: the server closes after the typed answer.
  Result<Frame> after = client.ReadFrame();
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(server_->stats().bad_frames, 1u);
}

TEST_F(LoopbackTest, OversizedLengthAnswersTypedErrorBeforeAllocation) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  // Hand-build a header claiming a 4 GiB payload; send only the header.
  std::string header;
  const uint32_t type = static_cast<uint32_t>(MsgType::kMatchPair);
  const uint32_t length = 0xFFFFFFF0u;
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((type >> shift) & 0xFF));
  }
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  ASSERT_TRUE(client.SendBytes(header).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(MsgType::kErrorResp));
  ResponseHead head;
  ASSERT_TRUE(Decode(reply->payload, &head));
  EXPECT_EQ(head.status_code(), StatusCode::kInvalidArgument);
  Result<Frame> after = client.ReadFrame();
  EXPECT_FALSE(after.ok());
}

TEST_F(LoopbackTest, PipelinedRequestsAnswerInRequestOrder) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SubmitSchema(CorpusName(0), CorpusXsd(0))->head.ok());
  ASSERT_TRUE(client.SubmitSchema(CorpusName(1), CorpusXsd(1))->head.ok());

  // Two matches and a stats call written back-to-back, answered strictly
  // in order: pair resp, pair resp, stats resp.
  MatchPairReq pair{CorpusName(0), CorpusName(1), 0};
  std::string burst = EncodeFrame(MsgType::kMatchPair, Encode(pair));
  burst += EncodeFrame(MsgType::kMatchPair, Encode(pair));
  burst += EncodeFrame(MsgType::kGetStats, "");
  ASSERT_TRUE(client.SendBytes(burst).ok());

  const uint32_t expected_types[] = {
      static_cast<uint32_t>(MsgType::kMatchPairResp),
      static_cast<uint32_t>(MsgType::kMatchPairResp),
      static_cast<uint32_t>(MsgType::kGetStatsResp),
  };
  for (const uint32_t expected : expected_types) {
    Result<Frame> frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, expected);
  }
}

TEST_F(LoopbackTest, HttpGetServesOneShotPrometheusScrape) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendBytes("GET /metrics HTTP/1.0\r\n\r\n").ok());
  // Not a framed response: ReadFrame refuses the bytes as unframeable,
  // which is exactly right — scrape clients speak HTTP, not frames.
  Result<Frame> frame = client.ReadFrame();
  EXPECT_FALSE(frame.ok());
  EXPECT_GE(server_->stats().http_metrics, 1u);
}

TEST_F(LoopbackTest, ServerStatsAccountConnectionsAndRequests) {
  {
    Client client = Connect();
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.GetStats().ok());
  }  // destructor closes the socket
  // Poll until the loop notices the close (it is asynchronous).
  for (int i = 0; i < 200 && server_->stats().closed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.bad_frames, 0u);
}

}  // namespace
}  // namespace qmatch::net
