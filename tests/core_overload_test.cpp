// Unit tests for the engine's overload-protection layer: typed memory
// budget rejection, the pressure-driven degradation ladder, the
// no-degraded-results-in-cache rule, and the acceptance contract that a
// label-only run matches the full run bit-identically on the label,
// properties and level axes. Registered with the "overload" label, which
// `scripts/ci.sh stress` runs under ASan and TSan.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>

#include "common/file_util.h"
#include "core/qmatch.h"
#include "fault/failpoint.h"
#include "xsd/parser.h"

namespace qmatch::core {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

xsd::Schema LoadSchema(const std::string& name) {
  const std::string path =
      std::string(QMATCH_SOURCE_DIR) + "/data/schemas/" + name;
  Result<std::string> text = ReadFile(path);
  EXPECT_TRUE(text.ok()) << path << ": " << text.status();
  Result<xsd::Schema> schema = xsd::ParseSchema(*text);
  EXPECT_TRUE(schema.ok()) << path << ": " << schema.status();
  return std::move(*schema);
}

constexpr char kSmallXsd[] = R"(<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Order">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="City" type="xs:string"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
)";

TEST(MatchModeTest, NamesAreStable) {
  EXPECT_EQ(MatchModeName(MatchMode::kFull), "full");
  EXPECT_EQ(MatchModeName(MatchMode::kCappedDepth), "capped-depth");
  EXPECT_EQ(MatchModeName(MatchMode::kLabelOnly), "label-only");
}

// The acceptance contract of the degradation ladder: a label-only run over
// a data/schemas pair must agree with the full run *bit-identically* on the
// label/properties/level axes for every node pair — the degraded mode only
// drops the children axis and renormalizes weights, it never perturbs the
// other axis computations.
TEST(OverloadDegradationTest, LabelOnlyMatchesFullOnCheapAxesBitIdentically) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  const QMatch matcher;

  QMatch::Analysis full =
      matcher.Analyze(source, target, nullptr, nullptr, TreeMatchOptions{});
  TreeMatchOptions label_only_opts;
  label_only_opts.mode = MatchMode::kLabelOnly;
  QMatch::Analysis degraded =
      matcher.Analyze(source, target, nullptr, nullptr, label_only_opts);

  EXPECT_EQ(full.result().mode, MatchMode::kFull);
  EXPECT_EQ(degraded.result().mode, MatchMode::kLabelOnly);

  size_t compared = 0;
  for (const xsd::SchemaNode* s : source.AllNodes()) {
    for (const xsd::SchemaNode* t : target.AllNodes()) {
      const std::optional<PairQoM> f = full.Pair(s, t);
      const std::optional<PairQoM> d = degraded.Pair(s, t);
      ASSERT_TRUE(f.has_value());
      ASSERT_TRUE(d.has_value());
      EXPECT_TRUE(BitEqual(f->label, d->label))
          << s->Path() << " x " << t->Path();
      EXPECT_TRUE(BitEqual(f->properties, d->properties))
          << s->Path() << " x " << t->Path();
      EXPECT_TRUE(BitEqual(f->level, d->level))
          << s->Path() << " x " << t->Path();
      EXPECT_EQ(f->label_cls, d->label_cls);
      EXPECT_EQ(f->properties_cls, d->properties_cls);
      EXPECT_EQ(f->level_cls, d->level_cls);
      // The dropped axis really is dropped.
      EXPECT_EQ(d->children, 0.0);
      ++compared;
    }
  }
  EXPECT_EQ(compared, source.NodeCount() * target.NodeCount());
}

TEST(OverloadDegradationTest, LabelOnlyWeightsAreRenormalized) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  QMatch matcher;  // paper weights {0.3, 0.2, 0.1, 0.4}
  TreeMatchOptions opts;
  opts.mode = MatchMode::kLabelOnly;
  QMatch::Analysis degraded =
      matcher.Analyze(source, target, nullptr, nullptr, opts);
  // Eq. 6/7 renormalization: w' = w / (WL + WP + WH), so the root pair's
  // QoM is the renormalized weighted sum of its three remaining axes.
  const PairQoM root = degraded.Root();
  const double rest = 0.3 + 0.2 + 0.1;
  const double expected = (0.3 / rest) * root.label +
                          (0.2 / rest) * root.properties +
                          (0.1 / rest) * root.level;
  EXPECT_TRUE(BitEqual(root.qom, expected))
      << root.qom << " vs " << expected;
}

TEST(OverloadDegradationTest, CappedDepthTreatsDeepNodesAsLeaves) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  const QMatch matcher;
  TreeMatchOptions opts;
  opts.mode = MatchMode::kCappedDepth;
  opts.children_depth_cap = 1;  // only the roots keep a children axis
  QMatch::Analysis capped =
      matcher.Analyze(source, target, nullptr, nullptr, opts);
  EXPECT_EQ(capped.result().mode, MatchMode::kCappedDepth);
  // Cheap axes are still bit-identical to the full run.
  QMatch::Analysis full = matcher.Analyze(source, target);
  for (const xsd::SchemaNode* s : source.AllNodes()) {
    for (const xsd::SchemaNode* t : target.AllNodes()) {
      const std::optional<PairQoM> f = full.Pair(s, t);
      const std::optional<PairQoM> c = capped.Pair(s, t);
      ASSERT_TRUE(f.has_value());
      ASSERT_TRUE(c.has_value());
      EXPECT_TRUE(BitEqual(f->label, c->label));
      EXPECT_TRUE(BitEqual(f->properties, c->properties));
      EXPECT_TRUE(BitEqual(f->level, c->level));
    }
  }
}

TEST(OverloadEngineTest, RequestBudgetExhaustionIsTyped) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.request_budget_bytes = 16;  // far below one QoM table
  MatchEngine engine(options);
  EngineMatchResult out = engine.Match(source, target, EngineRequestOptions{});
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(out.result.correspondences.empty());
}

TEST(OverloadEngineTest, ProcessBudgetIsSharedAcrossRequests) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.process_budget_bytes = 16;  // request budget unlimited
  MatchEngine engine(options);
  EngineMatchResult out = engine.Match(source, target, EngineRequestOptions{});
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  // The failed charge was rolled back: the process budget is not leaked.
  EXPECT_EQ(engine.process_budget().used(), 0u);
}

TEST(OverloadEngineTest, DegradedResultsAreNeverCached) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  const xsd::Schema small = xsd::ParseSchema(kSmallXsd).value();
  const uint64_t cost = source.NodeCount() * target.NodeCount();
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 64;
  // Capacity of exactly one PO1xPO2 request: it saturates the controller
  // (pressure 1.0, label-only), while a small x small request stays below
  // the capped-depth rung and runs at full fidelity.
  options.overload.admission.max_inflight_cost = cost;
  ASSERT_LT(4 * small.NodeCount() * small.NodeCount(), 3 * cost);
  MatchEngine engine(options);
  for (int i = 0; i < 2; ++i) {
    const EngineMatchResult degraded =
        engine.Match(source, target, EngineRequestOptions{});
    ASSERT_TRUE(degraded.ok()) << degraded.status;
    EXPECT_EQ(degraded.result.mode, MatchMode::kLabelOnly);
  }
  MatchEngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0u);  // a degraded answer never becomes an oracle
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
  // Full-fidelity requests cache as before.
  for (int i = 0; i < 2; ++i) {
    const EngineMatchResult full =
        engine.Match(small, small, EngineRequestOptions{});
    ASSERT_TRUE(full.ok()) << full.status;
    EXPECT_EQ(full.result.mode, MatchMode::kFull);
  }
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(OverloadEngineTest, SaturatingAdmissionPressureDegradesToLabelOnly) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  // Capacity far below one request's |Ns|·|Nt| cost: the request is
  // clamped and admitted alone, but it saturates the controller, so the
  // pressure signal reads 1.0 and the ladder drops to label-only.
  options.overload.admission.max_inflight_cost = 4;
  MatchEngine engine(options);
  EngineMatchResult out = engine.Match(source, target, EngineRequestOptions{});
  ASSERT_TRUE(out.ok()) << out.status;
  EXPECT_EQ(out.result.mode, MatchMode::kLabelOnly);
  // Once the request retires, the pressure falls back to zero.
  EXPECT_EQ(engine.Pressure(), 0.0);
}

TEST(OverloadEngineTest, AmpleCapacityStaysFullFidelity) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  options.overload.admission.max_inflight_cost = uint64_t{1} << 40;
  MatchEngine engine(options);
  EngineMatchResult out = engine.Match(source, target, EngineRequestOptions{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.result.mode, MatchMode::kFull);
}

#if QMATCH_FAULT_ENABLED
TEST(OverloadEngineTest, CacheHitIsServedWithoutConsultingAdmission) {
  const xsd::Schema source = LoadSchema("PO1.xsd");
  const xsd::Schema target = LoadSchema("PO2.xsd");
  MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 8;
  options.overload.admission.max_inflight_cost = uint64_t{1} << 40;
  MatchEngine engine(options);
  ASSERT_TRUE(engine.Match(source, target, EngineRequestOptions{}).ok());
  // Every admission attempt now sheds — but a cache hit returns first.
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  fault::ScopedFailpoint fp("admission.admit", spec);
  EngineMatchResult hit = engine.Match(source, target, EngineRequestOptions{});
  EXPECT_TRUE(hit.ok()) << hit.status;
  EXPECT_EQ(hit.result.mode, MatchMode::kFull);
}
#endif

}  // namespace
}  // namespace qmatch::core
