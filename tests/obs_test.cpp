// Correctness tests of the observability subsystem (ISSUE 2 satellite):
// exact concurrent counter sums, stable histogram bucket boundaries,
// exporter output round-tripping through the obs JSON parser, and — when
// instrumentation is compiled in — the hooks woven through the engine and
// parsers actually firing. Every test that touches the global registry
// asserts deltas against uniquely named metrics, so tests stay
// order-independent.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/obs.h"
#include "support/json.h"
#include "xsd/parser.h"

namespace qmatch::obs {
namespace {

constexpr char kSourceXsd[] = R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO">
    <xs:complexType><xs:sequence>
      <xs:element name="Address" type="xs:string"/>
      <xs:element name="City" type="xs:string"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>)";

constexpr char kTargetXsd[] = R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PurchaseOrder">
    <xs:complexType><xs:sequence>
      <xs:element name="Address" type="xs:string"/>
      <xs:element name="City" type="xs:string"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>)";

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter("test.concurrent");
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, AddDeltaAndReset) {
  Counter counter("test.delta");
  counter.Add(5);
  counter.Add(37);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  Gauge gauge("test.gauge");
  gauge.Add(3);
  gauge.Add(4);
  EXPECT_EQ(gauge.Value(), 7);
  EXPECT_EQ(gauge.Max(), 7);
  gauge.Sub(5);
  EXPECT_EQ(gauge.Value(), 2);
  EXPECT_EQ(gauge.Max(), 7);  // max survives the drop
  gauge.Set(1);
  EXPECT_EQ(gauge.Value(), 1);
  EXPECT_EQ(gauge.Max(), 7);
}

TEST(HistogramTest, BucketBoundariesAreStable) {
  Histogram histogram("test.hist", {1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // bucket le=1
  histogram.Observe(1.0);    // le=1 (inclusive upper bound)
  histogram.Observe(5.0);    // le=10
  histogram.Observe(99.0);   // le=100
  histogram.Observe(1000.0); // +Inf overflow
  const Histogram::Snapshot snap = histogram.Scrape();
  ASSERT_EQ(snap.bounds, (std::vector<double>{1.0, 10.0, 100.0}));
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);
  EXPECT_EQ(snap.bucket_counts[1], 1u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 5.0 + 99.0 + 1000.0);
}

TEST(HistogramTest, ExponentialBoundsShape) {
  const std::vector<double> bounds = Histogram::ExponentialBounds(1.0, 4.0, 4);
  EXPECT_EQ(bounds, (std::vector<double>{1.0, 4.0, 16.0, 64.0}));
  // The default latency layout never changes silently: exporter consumers
  // (dashboards) key on these boundaries.
  const std::vector<double> latency = Histogram::LatencyBoundsNs();
  ASSERT_EQ(latency.size(), 13u);
  EXPECT_DOUBLE_EQ(latency.front(), 1e3);
  EXPECT_DOUBLE_EQ(latency[1], 4e3);
}

TEST(HistogramTest, ConcurrentObservationsSumExactly) {
  Histogram histogram("test.hist.mt", {10.0, 20.0});
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        histogram.Observe(t < 4 ? 5.0 : 15.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const Histogram::Snapshot snap = histogram.Scrape();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.bucket_counts[0], 4 * kPerThread);
  EXPECT_EQ(snap.bucket_counts[1], 4 * kPerThread);
  EXPECT_EQ(snap.bucket_counts[2], 0u);
}

TEST(RegistryTest, ReturnsSameInstanceAndSurvivesReset) {
  Registry& registry = Registry::Global();
  Counter& counter = registry.GetCounter("test.registry.counter");
  Counter& again = registry.GetCounter("test.registry.counter");
  EXPECT_EQ(&counter, &again);
  counter.Add(7);
  registry.ResetAll();
  // The object survives (cached references stay valid), the value resets.
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add(2);
  EXPECT_EQ(registry.GetCounter("test.registry.counter").Value(), 2u);
}

TEST(RegistryTest, PrometheusTextContainsAllSeries) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test.prom.counter", "a help string").Add(3);
  registry.GetGauge("test.prom.gauge").Set(-4);
  registry.GetHistogram("test.prom.hist", {1.0, 2.0}).Observe(1.5);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP test_prom_counter a help string"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge -4"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 1"), std::string::npos);
}

TEST(RegistryTest, JsonExportRoundTripsThroughJsonParser) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test.json.counter").Add(123);
  registry.GetGauge("test.json.gauge").Set(-5);
  Histogram& histogram = registry.GetHistogram("test.json.hist", {1.0, 10.0});
  histogram.Observe(0.5);
  histogram.Observe(50.0);

  Result<json::Value> parsed = json::Parse(registry.JsonText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const json::Value& root = parsed.value();
  const json::Value* counter = root.Get("counters", "test.json.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->AsNumber(), 123.0);  // >= : other tests may also bump it
  const json::Value* gauge = root.Get("gauges", "test.json.gauge", "value");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->AsNumber(), -5.0);
  const json::Value* hist = root.Get("histograms", "test.json.hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->Find("buckets"), nullptr);
  const json::Value::Array& buckets = hist->Find("buckets")->AsArray();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].Find("le")->AsNumber(), 1.0);
  EXPECT_EQ(buckets[0].Find("count")->AsNumber(), 1.0);
  EXPECT_EQ(hist->Find("inf_count")->AsNumber(), 1.0);
}

TEST(TracerTest, RecordsNestedSpansWithDepth) {
  Tracer tracer(/*capacity=*/16);
  {
    Span outer("outer", tracer);
    outer.Arg("n", 3);
    { Span inner("inner", tracer); }
  }
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  // Inner ends (and records) first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_GE(events[1].duration_ns, events[0].duration_ns);
  const std::map<std::string, SpanStats> stats = tracer.Stats();
  EXPECT_EQ(stats.at("outer").count, 1u);
  EXPECT_EQ(stats.at("inner").count, 1u);
}

TEST(TracerTest, RingBufferIsBoundedButStatsAreNot) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    Span span("looped", tracer);
  }
  EXPECT_EQ(tracer.Events().size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.Stats().at("looped").count, 10u);  // aggregates survive
}

TEST(TracerTest, ChromeTraceJsonParses) {
  Tracer tracer(/*capacity=*/8);
  {
    Span span("chrome", tracer);
    span.Arg("bytes", 42);
  }
  Result<json::Value> parsed = json::Parse(tracer.ChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const json::Value* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 1u);
  const json::Value& event = events->AsArray()[0];
  EXPECT_EQ(event.Find("name")->AsString(), "chrome");
  EXPECT_EQ(event.Find("ph")->AsString(), "X");
  EXPECT_EQ(event.Get("args", "bytes")->AsNumber(), 42.0);
}

TEST(CombinedJsonTest, ParsesAndCarriesObsEnabledFlag) {
  Result<json::Value> parsed = json::Parse(CombinedJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const json::Value* enabled = parsed.value().Find("obs_enabled");
  ASSERT_NE(enabled, nullptr);
  EXPECT_EQ(enabled->AsBool(), QMATCH_OBS_ENABLED != 0);
  EXPECT_NE(parsed.value().Find("metrics"), nullptr);
  EXPECT_NE(parsed.value().Find("spans"), nullptr);
}

TEST(CliSinkTest, ParsesObservabilityFlagsOnly) {
  CliSink sink;
  EXPECT_TRUE(sink.TryParse("--metrics-out=/tmp/m.json"));
  EXPECT_TRUE(sink.TryParse("--trace-out=/tmp/t.json"));
  EXPECT_FALSE(sink.TryParse("--threshold=0.5"));
  EXPECT_FALSE(sink.TryParse("PO1"));
  EXPECT_EQ(sink.metrics_path, "/tmp/m.json");
  EXPECT_EQ(sink.trace_path, "/tmp/t.json");
}

// --- obs::json parser unit tests ----------------------------------------

TEST(JsonParserTest, ParsesScalarsAndNesting) {
  Result<json::Value> parsed =
      json::Parse(R"({"a": [1, -2.5e1, true, false, null, "s\nA"]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const json::Value::Array& a = parsed.value().Find("a")->AsArray();
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a[0].AsNumber(), 1.0);
  EXPECT_EQ(a[1].AsNumber(), -25.0);
  EXPECT_TRUE(a[2].AsBool());
  EXPECT_FALSE(a[3].AsBool());
  EXPECT_TRUE(a[4].is_null());
  EXPECT_EQ(a[5].AsString(), "s\nA");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("{\"k\" 1}").ok());
  EXPECT_FALSE(json::Parse("tru").ok());
  EXPECT_FALSE(json::Parse("1 2").ok());  // trailing content
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("").ok());
}

TEST(JsonParserTest, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  Result<json::Value> parsed = json::Parse(deep);
  EXPECT_FALSE(parsed.ok());  // hostile nesting fails, never crashes
}

// --- Macro hooks ---------------------------------------------------------

// The macros must compile — and be side-effect-free when the kill switch
// is off — in both build flavours (the OFF flavour of this test runs via
// `scripts/ci.sh`, cmake -DQMATCH_OBS=OFF).
TEST(ObsMacroTest, MacrosCompileInBothModes) {
  QMATCH_COUNTER_ADD("test.macro.counter", 2);
  QMATCH_GAUGE_ADD("test.macro.gauge", 1);
  QMATCH_GAUGE_SET("test.macro.gauge", 5);
  QMATCH_HISTOGRAM_OBSERVE("test.macro.hist", 123.0);
  {
    QMATCH_SPAN(span, "test.macro.span");
    QMATCH_SPAN_ARG(span, "k", 1);
  }
#if QMATCH_OBS_ENABLED
  EXPECT_GE(Registry::Global().GetCounter("test.macro.counter").Value(), 2u);
  EXPECT_EQ(Registry::Global().GetGauge("test.macro.gauge").Value(), 5);
#endif
}

#if QMATCH_OBS_ENABLED
// End-to-end: the hooks woven through MatchEngine / TreeMatch / parsers
// fire with real schemas.
TEST(InstrumentationTest, EngineAndParserHooksFire) {
  Registry& registry = Registry::Global();
  const uint64_t hits_before =
      registry.GetCounter("engine.cache.hits").Value();
  const uint64_t pairs_before =
      registry.GetCounter("qmatch.treematch.pairs").Value();
  const uint64_t xsd_docs_before =
      registry.GetCounter("xsd.parse.documents").Value();
  const uint64_t treematch_spans_before = [&] {
    const auto stats = Tracer::Global().Stats();
    auto it = stats.find("qmatch.treematch");
    return it == stats.end() ? uint64_t{0} : it->second.count;
  }();

  Result<xsd::Schema> source = xsd::ParseSchema(kSourceXsd);
  Result<xsd::Schema> target = xsd::ParseSchema(kTargetXsd);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(target.ok());

  core::MatchEngineOptions options;
  options.threads = 1;
  core::MatchEngine engine(options);
  MatchResult first = engine.Match(source.value(), target.value());
  MatchResult second = engine.Match(source.value(), target.value());
  EXPECT_EQ(first.schema_qom, second.schema_qom);

  EXPECT_GT(registry.GetCounter("engine.cache.hits").Value(), hits_before);
  EXPECT_GT(registry.GetCounter("qmatch.treematch.pairs").Value(),
            pairs_before);
  EXPECT_GT(registry.GetCounter("xsd.parse.documents").Value(),
            xsd_docs_before);
  EXPECT_GT(registry.GetCounter("qmatch.treematch.memo_lookups").Value(), 0u);
  const auto stats = Tracer::Global().Stats();
  ASSERT_NE(stats.find("qmatch.treematch"), stats.end());
  EXPECT_GT(stats.at("qmatch.treematch").count, treematch_spans_before);
}
#endif  // QMATCH_OBS_ENABLED

}  // namespace
}  // namespace qmatch::obs
