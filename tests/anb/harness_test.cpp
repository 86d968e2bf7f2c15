#include "anb/anb/harness.hpp"

#include <gtest/gtest.h>

#include "anb/anb/pipeline.hpp"
#include "anb/util/error.hpp"

namespace anb {
namespace {

/// Build one small benchmark shared by the harness tests (cached — the
/// collection + fits take a couple of seconds).
const PipelineResult& small_pipeline() {
  static const PipelineResult result = [] {
    PipelineOptions options;
    options.n_archs = 600;
    options.tune = false;
    return construct_benchmark(options);
  }();
  return result;
}

TEST(HarnessTest, TrajectoriesCompareTrueAndSimulated) {
  const auto& pipe = small_pipeline();
  const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
  TrajectoryConfig config;
  config.n_evals = 60;
  config.n_sim_seeds = 2;
  const auto comparisons =
      compare_trajectories(pipe.bench, *sim, pipe.p_star, config);
  ASSERT_EQ(comparisons.size(), 3u);
  EXPECT_EQ(comparisons[0].optimizer, "RS");
  EXPECT_EQ(comparisons[1].optimizer, "RE");
  EXPECT_EQ(comparisons[2].optimizer, "REINFORCE");
  for (const auto& cmp : comparisons) {
    EXPECT_EQ(cmp.true_incumbent.size(), 60u);
    EXPECT_EQ(cmp.sim_incumbents.size(), 2u);
    EXPECT_EQ(cmp.sim_mean_incumbent.size(), 60u);
    // Incumbent curves are non-decreasing.
    for (std::size_t i = 1; i < cmp.true_incumbent.size(); ++i) {
      EXPECT_GE(cmp.true_incumbent[i], cmp.true_incumbent[i - 1]);
      EXPECT_GE(cmp.sim_mean_incumbent[i], cmp.sim_mean_incumbent[i - 1]);
    }
    // True and simulated final incumbents should be in the same ballpark
    // (that is the point of the benchmark; Fig. 5).
    EXPECT_NEAR(cmp.true_incumbent.back(), cmp.sim_mean_incumbent.back(),
                0.06);
  }
}

TEST(HarnessTest, ParetoSearchProducesFront) {
  const auto& pipe = small_pipeline();
  ParetoSearchConfig config;
  config.key = {DeviceKind::kVck190, PerfMetric::kThroughput};
  config.n_targets = 3;
  config.n_evals_per_target = 60;
  const ParetoOutcome outcome = pareto_search(pipe.bench, config);

  EXPECT_EQ(outcome.archs.size(), 180u);
  ASSERT_FALSE(outcome.front.empty());
  ASSERT_FALSE(outcome.picks.empty());
  // Front members must be mutually non-dominating.
  for (std::size_t i : outcome.front) {
    for (std::size_t j : outcome.front) {
      if (i == j) continue;
      const bool dominates = outcome.accuracy[i] >= outcome.accuracy[j] &&
                             outcome.perf[i] >= outcome.perf[j] &&
                             (outcome.accuracy[i] > outcome.accuracy[j] ||
                              outcome.perf[i] > outcome.perf[j]);
      EXPECT_FALSE(dominates);
    }
  }
  for (std::size_t pick : outcome.picks) {
    EXPECT_TRUE(std::find(outcome.front.begin(), outcome.front.end(), pick) !=
                outcome.front.end());
  }
}

TEST(HarnessTest, ParetoSearchLatencyDirection) {
  const auto& pipe = small_pipeline();
  ParetoSearchConfig config;
  config.key = {DeviceKind::kZcu102, PerfMetric::kLatency};
  config.n_targets = 2;
  config.n_evals_per_target = 50;
  const ParetoOutcome outcome = pareto_search(pipe.bench, config);
  ASSERT_GE(outcome.front.size(), 1u);
  // Along an acc-ascending front, latency must also ascend (trade-off).
  for (std::size_t k = 1; k < outcome.front.size(); ++k) {
    EXPECT_GE(outcome.accuracy[outcome.front[k]],
              outcome.accuracy[outcome.front[k - 1]] - 1e-12);
    EXPECT_GE(outcome.perf[outcome.front[k]],
              outcome.perf[outcome.front[k - 1]] - 1e-9);
  }
}

TEST(HarnessTest, ParetoSearchRequiresSurrogates) {
  AccelNASBench empty;
  ParetoSearchConfig config;
  EXPECT_THROW(pareto_search(empty, config), Error);
}

TEST(HarnessTest, TrueEvaluationIncludesBaselines) {
  const auto& pipe = small_pipeline();
  const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
  ParetoSearchConfig config;
  config.key = {DeviceKind::kVck190, PerfMetric::kThroughput};
  config.n_targets = 2;
  config.n_evals_per_target = 50;
  config.n_picks = 2;
  const ParetoOutcome outcome = pareto_search(pipe.bench, config);
  const auto rows = true_evaluation(outcome, *sim, MetricKey{DeviceKind::kVck190, PerfMetric::kThroughput}, "vck190");
  // picks + 4 zoo baselines.
  EXPECT_EQ(rows.size(), outcome.picks.size() + 4u);
  int ours = 0;
  for (const auto& row : rows) {
    EXPECT_GT(row.accuracy, 0.4);
    EXPECT_GT(row.perf, 0.0);
    ours += row.is_ours;
    if (row.is_ours) {
      EXPECT_EQ(row.name.rfind("anb-vck190-", 0), 0u) << row.name;
    }
  }
  EXPECT_EQ(ours, static_cast<int>(outcome.picks.size()));
}

}  // namespace
}  // namespace anb
