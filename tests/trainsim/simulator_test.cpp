#include "anb/trainsim/space_sim.hpp"

#include <gtest/gtest.h>

#include "anb/searchspace/space.hpp"
#include "anb/searchspace/zoo.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/stats.hpp"

namespace anb {
namespace {

TrainingScheme proxy_scheme(int epochs, int res_finish) {
  TrainingScheme s;
  s.batch_size = 512;
  s.total_epochs = epochs;
  s.resize_start_epoch = 0;
  s.resize_finish_epoch = 0;
  s.res_start = res_finish;
  s.res_finish = res_finish;
  return s;
}

/// Every block set to `block`.
Arch uniform_arch(const BlockConfig& block) {
  Architecture blocks;
  for (auto& b : blocks.blocks) b = block;
  return MnasSpace::from_blocks(blocks);
}

class SimulatorTest : public ::testing::Test {
 protected:
  MnasSpaceSim sim_{42};
  Rng rng_{7};
};

TEST_F(SimulatorTest, DeterministicAcrossInstances) {
  MnasSpaceSim other(42);
  const Arch a = MnasSpace::instance().sample(rng_);
  const auto r1 = sim_.train(a, reference_scheme(), 3);
  const auto r2 = other.train(a, reference_scheme(), 3);
  EXPECT_DOUBLE_EQ(r1.top1, r2.top1);
  EXPECT_DOUBLE_EQ(r1.gpu_hours, r2.gpu_hours);
}

TEST_F(SimulatorTest, WorldSeedChangesLandscape) {
  MnasSpaceSim other(43);
  // Latent quality differs between worlds for at least some architectures.
  int diffs = 0;
  for (int i = 0; i < 20; ++i) {
    const Arch a = MnasSpace::instance().sample(rng_);
    diffs += std::abs(sim_.latent_quality(a) - other.latent_quality(a)) > 1e-6;
  }
  EXPECT_GT(diffs, 15);
}

TEST_F(SimulatorTest, SeedNoiseIsSmallAndZeroMeanIsh) {
  const Arch a = MnasSpace::instance().sample(rng_);
  const double expected = sim_.expected_accuracy(a, reference_scheme());
  std::vector<double> runs;
  for (int s = 0; s < 40; ++s)
    runs.push_back(sim_.train(a, reference_scheme(), s).top1);
  EXPECT_NEAR(mean(runs), expected, 0.002);
  EXPECT_LT(stddev(runs), 0.006);
  EXPECT_GT(stddev(runs), 0.0002);
}

TEST_F(SimulatorTest, MoreEpochsMeansHigherAccuracy) {
  for (int i = 0; i < 10; ++i) {
    const Arch a = MnasSpace::instance().sample(rng_);
    const double a10 = sim_.expected_accuracy(a, proxy_scheme(10, 224));
    const double a50 = sim_.expected_accuracy(a, proxy_scheme(50, 224));
    const double a200 = sim_.expected_accuracy(a, proxy_scheme(200, 224));
    EXPECT_LT(a10, a50);
    EXPECT_LT(a50, a200);
  }
}

TEST_F(SimulatorTest, HigherResolutionMeansHigherAccuracy) {
  for (int i = 0; i < 10; ++i) {
    const Arch a = MnasSpace::instance().sample(rng_);
    EXPECT_LT(sim_.expected_accuracy(a, proxy_scheme(30, 160)),
              sim_.expected_accuracy(a, proxy_scheme(30, 224)));
  }
}

TEST_F(SimulatorTest, HugeBatchCostsAccuracy) {
  const Arch a = MnasSpace::instance().sample(rng_);
  auto big = proxy_scheme(30, 224);
  big.batch_size = 4096;
  EXPECT_LT(sim_.expected_accuracy(a, big),
            sim_.expected_accuracy(a, proxy_scheme(30, 224)));
}

TEST_F(SimulatorTest, AccuracyInValidRange) {
  for (int i = 0; i < 50; ++i) {
    const Arch a = MnasSpace::instance().sample(rng_);
    const double acc = sim_.train(a, proxy_scheme(10, 160), i).top1;
    EXPECT_GT(acc, 0.0);
    EXPECT_LT(acc, 1.0);
  }
}

TEST_F(SimulatorTest, ReferenceAccuracyRealisticRange) {
  // ImageNet top-1 for this space: roughly 55-80%.
  for (int i = 0; i < 100; ++i) {
    const Arch a = MnasSpace::instance().sample(rng_);
    const double acc = sim_.reference_accuracy(a);
    EXPECT_GT(acc, 0.50);
    EXPECT_LT(acc, 0.85);
  }
  EXPECT_GT(sim_.reference_accuracy(MnasSpace::from_blocks(effnet_b0_like().arch)), 0.74);
}

TEST_F(SimulatorTest, CapacityImprovesQuality) {
  const Arch small = uniform_arch({1, 3, 1, false});
  const Arch big = uniform_arch({6, 5, 3, true});
  EXPECT_GT(sim_.latent_quality(big), sim_.latent_quality(small) + 1.0);
  EXPECT_GT(sim_.reference_accuracy(big), sim_.reference_accuracy(small));
}

TEST_F(SimulatorTest, TrainingCostScalesWithEpochsAndResolution) {
  const Arch a = MnasSpace::instance().sample(rng_);
  const double c10 = sim_.training_cost_hours(a, proxy_scheme(10, 224));
  const double c20 = sim_.training_cost_hours(a, proxy_scheme(20, 224));
  EXPECT_NEAR(c20 / c10, 2.0, 1e-9);
  const double c160 = sim_.training_cost_hours(a, proxy_scheme(10, 160));
  EXPECT_NEAR(c10 / c160, (224.0 * 224.0) / (160.0 * 160.0), 1e-9);
}

TEST_F(SimulatorTest, ProgressiveResizingSavesTime) {
  const Arch a = MnasSpace::instance().sample(rng_);
  TrainingScheme ramp = proxy_scheme(30, 224);
  ramp.res_start = 128;
  ramp.resize_finish_epoch = 20;
  EXPECT_LT(sim_.training_cost_hours(a, ramp),
            sim_.training_cost_hours(a, proxy_scheme(30, 224)));
}

TEST_F(SimulatorTest, ReferenceCostRealistic) {
  // Paper-scale: a mid-size model costs tens of GPU-hours under r and the
  // ~5.6-7x cheaper proxy lands near 3 GPU-hours.
  const double ref =
      sim_.training_cost_hours(MnasSpace::from_blocks(effnet_b0_like().arch),
                                reference_scheme());
  EXPECT_GT(ref, 8.0);
  EXPECT_LT(ref, 60.0);
}

TEST_F(SimulatorTest, BiggerModelsCostMore) {
  const Arch small = uniform_arch({1, 3, 1, false});
  const Arch big = uniform_arch({6, 5, 3, true});
  EXPECT_GT(sim_.training_cost_hours(big, reference_scheme()),
            2.0 * sim_.training_cost_hours(small, reference_scheme()));
}

TEST_F(SimulatorTest, ProxyPreservesRankingsApproximately) {
  // The central premise (Eq. 1): a sane proxy keeps tau high.
  std::vector<double> ref, prox;
  for (int i = 0; i < 150; ++i) {
    const Arch a = MnasSpace::instance().sample(rng_);
    ref.push_back(sim_.train(a, reference_scheme(), 0).top1);
    prox.push_back(sim_.train(a, proxy_scheme(30, 224), 0).top1);
  }
  EXPECT_GT(kendall_tau(ref, prox), 0.85);
}

TEST_F(SimulatorTest, AggressiveProxyDegradesRankings) {
  std::vector<double> ref, gentle, harsh;
  for (int i = 0; i < 150; ++i) {
    const Arch a = MnasSpace::instance().sample(rng_);
    ref.push_back(sim_.expected_accuracy(a, reference_scheme()));
    gentle.push_back(sim_.train(a, proxy_scheme(50, 224), 0).top1);
    harsh.push_back(sim_.train(a, proxy_scheme(10, 160), 0).top1);
  }
  EXPECT_GT(kendall_tau(ref, gentle), kendall_tau(ref, harsh));
}

TEST_F(SimulatorTest, InvalidInputsThrow) {
  // Block 0's kernel decision forged past its two options.
  Arch bad = uniform_arch({1, 3, 1, false});
  bad.d[1] = 9;
  EXPECT_THROW(sim_.latent_quality(bad), Error);
  TrainingScheme s = proxy_scheme(10, 224);
  s.resize_finish_epoch = 20;  // > total
  const Arch ok = MnasSpace::instance().sample(rng_);
  EXPECT_THROW(sim_.train(ok, s, 0), Error);
}

TEST_F(SimulatorTest, Int8DropSmallAndStructured) {
  const Arch no_se = uniform_arch({6, 3, 3, false});
  const Arch all_se = uniform_arch({6, 3, 3, true});
  const double d_no_se = sim_.int8_accuracy_drop(no_se);
  const double d_all_se = sim_.int8_accuracy_drop(all_se);
  EXPECT_GT(d_all_se, d_no_se);  // SE gates quantize poorly
  for (int i = 0; i < 30; ++i) {
    const double d = sim_.int8_accuracy_drop(MnasSpace::instance().sample(rng_));
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 0.02);  // PTQ on convnets: well under 2 points
  }
}

TEST_F(SimulatorTest, Int8DropLargerForSmallModels) {
  const Arch small = uniform_arch({1, 3, 1, false});
  const Arch big = uniform_arch({6, 5, 3, false});
  EXPECT_GT(sim_.int8_accuracy_drop(small), sim_.int8_accuracy_drop(big));
}

// Property: accuracy monotone in epochs for many random architectures.
class EpochMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(EpochMonotonicity, AccuracyNonDecreasingInEpochs) {
  MnasSpaceSim sim(42);
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const Arch a = MnasSpace::instance().sample(rng);
  double prev = 0.0;
  for (int epochs : {10, 15, 20, 30, 50, 100, 200}) {
    const double acc = sim.expected_accuracy(a, proxy_scheme(epochs, 224));
    EXPECT_GE(acc + 1e-12, prev) << "epochs=" << epochs;
    prev = acc;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomArchs, EpochMonotonicity,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace anb
