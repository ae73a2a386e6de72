// Property-based tests for QMatch over randomly generated schemas:
// invariants that must hold for any input.

#include <gtest/gtest.h>

#include <optional>

#include "core/qmatch.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "eval/metrics.h"

namespace qmatch::core {
namespace {

using datagen::Domain;
using datagen::GeneratorOptions;
using datagen::PerturbOptions;

xsd::Schema RandomSchema(uint64_t seed, size_t count, Domain domain) {
  GeneratorOptions options;
  options.element_count = count;
  options.max_depth = 5;
  options.min_fanout = 2;
  options.max_fanout = 5;
  options.domain = domain;
  options.seed = seed;
  options.name = "Gen";
  return datagen::GenerateSchema(options);
}

class QMatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QMatchPropertyTest, SelfMatchIsPerfect) {
  xsd::Schema schema = RandomSchema(GetParam(), 40, Domain::kCommerce);
  xsd::Schema copy = schema.Clone();
  QMatch matcher;
  MatchResult result = matcher.Match(schema, copy);
  EXPECT_NEAR(result.schema_qom, 1.0, 1e-9);
  EXPECT_EQ(result.correspondences.size(), schema.NodeCount());
  for (const Correspondence& c : result.correspondences) {
    EXPECT_EQ(c.source->Path(), c.target->Path());
  }
}

TEST_P(QMatchPropertyTest, AllScoresBounded) {
  xsd::Schema source = RandomSchema(GetParam(), 30, Domain::kProtein);
  xsd::Schema target = RandomSchema(GetParam() + 7777, 35, Domain::kProtein);
  QMatch matcher;
  QMatch::Analysis analysis = matcher.Analyze(source, target);
  for (const xsd::SchemaNode* s : source.AllNodes()) {
    for (const xsd::SchemaNode* t : target.AllNodes()) {
      const std::optional<PairQoM> pair = analysis.Pair(s, t);
      ASSERT_TRUE(pair.has_value());
      for (double v : {pair->qom, pair->label, pair->properties, pair->level,
                       pair->children}) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0 + 1e-9);
      }
      // The weighted sum must reproduce the stored total (Eq. 1).
      double recomputed = 0.3 * pair->label + 0.2 * pair->properties +
                          0.1 * pair->level + 0.4 * pair->children;
      EXPECT_NEAR(pair->qom, recomputed, 1e-9);
      // Total exact must mean QoM exactly 1.
      if (pair->category == qom::MatchCategory::kTotalExact) {
        EXPECT_NEAR(pair->qom, 1.0, 1e-9);
      }
    }
  }
}

TEST_P(QMatchPropertyTest, CorrespondencesRespectThresholdAndUniqueness) {
  xsd::Schema source = RandomSchema(GetParam() + 11, 30, Domain::kGeneric);
  xsd::Schema target = RandomSchema(GetParam() + 12, 25, Domain::kGeneric);
  QMatch matcher;
  MatchResult result = matcher.Match(source, target);
  std::set<std::string> seen_sources;
  for (const Correspondence& c : result.correspondences) {
    EXPECT_GE(c.score, matcher.config().threshold);
    // At most one correspondence per source node.
    EXPECT_TRUE(seen_sources.insert(c.source->Path()).second);
  }
}

TEST_P(QMatchPropertyTest, PerturbedCopyScoresHighAndRecallIsGood) {
  xsd::Schema source = RandomSchema(GetParam() + 21, 50, Domain::kCommerce);
  PerturbOptions gentle;
  gentle.rename_prob = 0.3;
  gentle.noise_rename_prob = 0.0;
  gentle.drop_prob = 0.0;
  gentle.add_prob = 0.0;
  gentle.seed = GetParam();
  eval::GoldStandard gold;
  xsd::Schema target = datagen::Perturb(source, gentle, &gold);

  QMatch matcher;
  MatchResult result = matcher.Match(source, target);
  eval::QualityMetrics metrics = eval::Evaluate(result, gold);
  // Structure fully preserved and renames thesaurus-discoverable: the
  // hybrid must recover a solid majority of the gold pairs.
  EXPECT_GT(metrics.recall, 0.6) << metrics.ToString();
  EXPECT_GT(result.schema_qom, 0.7);
}

TEST_P(QMatchPropertyTest, MorePerturbationNeverImprovesSchemaQom) {
  xsd::Schema source = RandomSchema(GetParam() + 31, 40, Domain::kProtein);

  auto schema_qom_at = [&](double intensity) {
    PerturbOptions options;
    options.rename_prob = 0.0;
    options.noise_rename_prob = intensity;  // unmatchable renames
    options.drop_prob = 0.0;
    options.add_prob = 0.0;
    options.retype_prob = 0.0;
    options.occurs_prob = 0.0;
    options.shuffle_children = false;
    options.seed = 99;  // same stream for nesting property
    eval::GoldStandard gold;
    xsd::Schema target = datagen::Perturb(source, options, &gold);
    QMatch matcher;
    return matcher.Match(source, target).schema_qom;
  };

  double clean = schema_qom_at(0.0);
  double noisy = schema_qom_at(0.9);
  EXPECT_NEAR(clean, 1.0, 1e-9);
  EXPECT_LT(noisy, clean);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QMatchPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace qmatch::core
