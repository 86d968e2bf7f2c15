#include <gtest/gtest.h>

#include <cstdio>

#include "anb/anb/harness.hpp"
#include "anb/anb/pipeline.hpp"
#include "anb/util/metrics.hpp"
#include "scratch_path.hpp"

namespace anb {
namespace {

/// Full pipeline at reduced scale: proxy scheme -> collection -> surrogate
/// fits -> zero-cost search -> true re-evaluation. This is the paper's
/// Fig. 2 plus §4 in one run.
TEST(EndToEndTest, FullBenchmarkConstructionAndUse) {
  PipelineOptions options;
  options.n_archs = 800;
  options.tune = false;
  const PipelineResult result = construct_benchmark(options);

  // 1 accuracy + 8 perf datasets fitted and evaluated.
  EXPECT_EQ(result.test_metrics.size(), 9u);
  const FitMetrics& acc = result.test_metrics.at("ANB-Acc");
  EXPECT_GT(acc.kendall_tau, 0.7);
  EXPECT_GT(acc.r2, 0.7);
  for (const auto& [name, metrics] : result.test_metrics) {
    EXPECT_GT(metrics.kendall_tau, 0.6) << name;
  }

  // Zero-cost queries agree with fresh predictions after save/load.
  const std::string path = scratch_path("anb_e2e_bench.json");
  result.bench.save(path);
  const AccelNASBench loaded = AccelNASBench::load(path);
  std::remove(path.c_str());
  Rng rng(5);
  const Arch probe = MnasSpace::instance().sample(rng);
  EXPECT_DOUBLE_EQ(loaded.query_accuracy(probe),
                   result.bench.query_accuracy(probe));

  // The benchmark's accuracy surrogate ranks like the true (simulated)
  // proxified training on fresh architectures.
  const auto sim = make_space_sim(SpaceId::kMnasNet, options.world_seed);
  std::vector<double> predicted, actual;
  for (int i = 0; i < 120; ++i) {
    const Arch a = MnasSpace::instance().sample(rng);
    predicted.push_back(result.bench.query_accuracy(a));
    actual.push_back(sim->train(a, result.p_star, 1).top1);
  }
  EXPECT_GT(kendall_tau(predicted, actual), 0.7);

  // Bi-objective zero-cost search produces models that, when "actually"
  // trained and measured, sit at competitive accuracy/throughput.
  ParetoSearchConfig search;
  search.key = {DeviceKind::kZcu102, PerfMetric::kThroughput};
  search.n_targets = 2;
  search.n_evals_per_target = 60;
  search.n_picks = 2;
  const ParetoOutcome outcome = pareto_search(result.bench, search);
  const auto rows = true_evaluation(outcome, *sim, MetricKey{DeviceKind::kZcu102, PerfMetric::kThroughput}, "zcu102");
  double best_ours_acc = 0.0;
  double best_baseline_acc = 0.0;
  for (const auto& row : rows) {
    (row.is_ours ? best_ours_acc : best_baseline_acc) =
        std::max(row.is_ours ? best_ours_acc : best_baseline_acc,
                 row.accuracy);
  }
  // Searched models should reach at least near-baseline accuracy.
  EXPECT_GT(best_ours_acc, best_baseline_acc - 0.05);
}

TEST(EndToEndTest, ProxySearchFeedsPipeline) {
  // Run the actual (small-grid) proxy search inside the pipeline.
  PipelineOptions options;
  options.n_archs = 200;
  options.run_proxy_search = true;
  options.proxy.n_models = 6;
  options.proxy.t_spec_hours = 3.0;
  options.proxy.domains.batch_size = {512};
  options.proxy.domains.total_epochs = {15, 30};
  options.proxy.domains.resize_start_epoch = {0};
  options.proxy.domains.resize_finish_epoch = {10};
  options.proxy.domains.res_start = {160, 192};
  options.proxy.domains.res_finish = {224};
  options.collect_perf = false;
  const PipelineResult result = construct_benchmark(options);

  EXPECT_FALSE(result.proxy.trials.empty());
  EXPECT_EQ(result.p_star, result.proxy.best);
  EXPECT_LE(result.proxy.best_cost_hours, options.proxy.t_spec_hours);
  EXPECT_GT(result.proxy.speedup, 1.0);
  EXPECT_TRUE(result.bench.has_accuracy());
  EXPECT_FALSE(result.bench.has_perf(MetricKey{DeviceKind::kA100, PerfMetric::kThroughput}));
}

}  // namespace
}  // namespace anb
