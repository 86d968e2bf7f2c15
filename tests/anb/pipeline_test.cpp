#include "anb/anb/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "anb/trainsim/space_sim.hpp"
#include "anb/util/error.hpp"
#include "scratch_path.hpp"

namespace anb {
namespace {

TEST(PipelineTest, CanonicalPStarIsValidAndCheap) {
  const TrainingScheme p = canonical_p_star();
  EXPECT_NO_THROW(p.validate());
  const MnasSpaceSim sim(42);
  Rng rng(1);
  const Arch arch = MnasSpace::instance().sample(rng);
  const double proxy_cost = sim.training_cost_hours(arch, p);
  const double ref_cost = sim.training_cost_hours(arch, reference_scheme());
  EXPECT_GT(ref_cost / proxy_cost, 4.0);
  EXPECT_LT(ref_cost / proxy_cost, 12.0);
}

TEST(PipelineTest, EnergyOptionAddsSurrogatesAndMetrics) {
  PipelineOptions options;
  options.n_archs = 250;
  options.collect_energy = true;
  const PipelineResult result = construct_benchmark(options);
  // 1 acc + 6 thr + 2 lat + 6 enr = 15 datasets.
  EXPECT_EQ(result.test_metrics.size(), 15u);
  EXPECT_TRUE(
      result.bench.has_perf(MetricKey{DeviceKind::kA100, PerfMetric::kEnergy}));
  Rng rng(2);
  const Arch arch = MnasSpace::instance().sample(rng);
  EXPECT_GT(result.bench.query_perf(arch, MetricKey{DeviceKind::kZcu102, PerfMetric::kEnergy}),
            0.0);
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  PipelineOptions options;
  options.n_archs = 200;
  options.collect_perf = false;
  const PipelineResult a = construct_benchmark(options);
  const PipelineResult b = construct_benchmark(options);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const Arch arch = MnasSpace::instance().sample(rng);
    EXPECT_DOUBLE_EQ(a.bench.query_accuracy(arch),
                     b.bench.query_accuracy(arch));
  }
  EXPECT_DOUBLE_EQ(a.test_metrics.at("ANB-Acc").kendall_tau,
                   b.test_metrics.at("ANB-Acc").kendall_tau);
}

TEST(PipelineTest, WorldSeedChangesBenchmark) {
  PipelineOptions a_options, b_options;
  a_options.n_archs = b_options.n_archs = 200;
  a_options.collect_perf = b_options.collect_perf = false;
  b_options.world_seed = 43;
  const PipelineResult a = construct_benchmark(a_options);
  const PipelineResult b = construct_benchmark(b_options);
  Rng rng(4);
  int diffs = 0;
  for (int i = 0; i < 10; ++i) {
    const Arch arch = MnasSpace::instance().sample(rng);
    diffs += a.bench.query_accuracy(arch) != b.bench.query_accuracy(arch);
  }
  EXPECT_GT(diffs, 5);
}

TEST(PipelineTest, TunedPipelineRunsEndToEnd) {
  PipelineOptions options;
  options.n_archs = 260;
  options.collect_perf = false;
  options.tune = true;
  options.tuning.n_trials = 4;
  options.tuning.tuning_subsample = 150;
  const PipelineResult result = construct_benchmark(options);
  EXPECT_GT(result.test_metrics.at("ANB-Acc").kendall_tau, 0.5);
}

TEST(PipelineTest, SavedBenchmarkLoadsElsewhere) {
  PipelineOptions options;
  options.n_archs = 200;
  options.collect_perf = false;
  const PipelineResult result = construct_benchmark(options);
  const std::string path = scratch_path("anb_pipe_bench.json");
  result.bench.save(path);
  const AccelNASBench loaded = AccelNASBench::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.has_accuracy());
  // Corrupted payloads are rejected cleanly.
  write_text_file(path, "{\"format\": \"accel-nasbench-v1\", \"perf\": 3}");
  EXPECT_THROW(AccelNASBench::load(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anb
