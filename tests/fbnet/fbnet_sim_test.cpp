#include "anb/fbnet/fbnet_sim.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "anb/util/error.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/stats.hpp"

namespace anb {
namespace {

TrainingScheme quick_scheme(int epochs) {
  TrainingScheme s;
  s.batch_size = 512;
  s.total_epochs = epochs;
  s.resize_start_epoch = 0;
  s.resize_finish_epoch = 0;
  s.res_start = 224;
  s.res_finish = 224;
  return s;
}

/// Every layer e6k5.
Arch biggest_arch() {
  std::string s = "e6k5";
  for (int i = 1; i < kFbnetNumLayers; ++i) s += "-e6k5";
  return FbnetSpace::instance().arch_from_string(s);
}

/// Skip wherever legal, e1k3 elsewhere.
Arch smallest_arch() {
  std::string s;
  for (const auto& slot : FbnetSpace::slots()) {
    if (!s.empty()) s += '-';
    s += slot.skip_allowed ? "skip" : "e1k3";
  }
  return FbnetSpace::instance().arch_from_string(s);
}

class FbnetSimTest : public ::testing::Test {
 protected:
  FbnetSpaceSim sim_{42};
  Rng rng_{7};
};

TEST_F(FbnetSimTest, Deterministic) {
  FbnetSpaceSim other(42);
  const Arch arch = FbnetSpace::instance().sample(rng_);
  EXPECT_DOUBLE_EQ(sim_.train(arch, reference_scheme(), 3).top1,
                   other.train(arch, reference_scheme(), 3).top1);
}

TEST_F(FbnetSimTest, AccuracyRangeRealistic) {
  std::vector<double> accs;
  for (int i = 0; i < 150; ++i)
    accs.push_back(sim_.reference_accuracy(FbnetSpace::instance().sample(rng_)));
  EXPECT_GT(min_value(accs), 0.45);
  EXPECT_LT(max_value(accs), 0.85);
  EXPECT_GT(stddev(accs), 0.015);  // meaningful spread for ranking studies
}

TEST_F(FbnetSimTest, CapacityImprovesQuality) {
  const Arch big = biggest_arch();
  const Arch small = smallest_arch();
  EXPECT_GT(sim_.latent_quality(big), sim_.latent_quality(small) + 1.0);
  EXPECT_GT(sim_.reference_accuracy(big), sim_.reference_accuracy(small));
}

TEST_F(FbnetSimTest, MoreEpochsHigherAccuracy) {
  for (int i = 0; i < 10; ++i) {
    const Arch arch = FbnetSpace::instance().sample(rng_);
    EXPECT_LT(sim_.expected_accuracy(arch, quick_scheme(15)),
              sim_.expected_accuracy(arch, quick_scheme(60)));
  }
}

TEST_F(FbnetSimTest, ProxyPreservesRankings) {
  // The generalizability claim: the paper's proxy methodology carries over.
  std::vector<double> ref, prox;
  for (int i = 0; i < 150; ++i) {
    const Arch arch = FbnetSpace::instance().sample(rng_);
    ref.push_back(sim_.train(arch, reference_scheme(), 0).top1);
    prox.push_back(sim_.train(arch, quick_scheme(30), 0).top1);
  }
  EXPECT_GT(kendall_tau(ref, prox), 0.85);
}

TEST_F(FbnetSimTest, CostScalesWithSize) {
  const Arch big = biggest_arch();
  const Arch small = smallest_arch();
  EXPECT_GT(sim_.training_cost_hours(big, reference_scheme()),
            2.0 * sim_.training_cost_hours(small, reference_scheme()));
}

TEST_F(FbnetSimTest, TraitsWellFormed) {
  for (int i = 0; i < 30; ++i) {
    const ArchTraits traits = sim_.traits(FbnetSpace::instance().sample(rng_));
    EXPECT_GE(traits.size_factor, 0.0);
    EXPECT_LE(traits.size_factor, 1.0);
    EXPECT_GE(traits.depth_norm, 0.0);
    EXPECT_LE(traits.depth_norm, 1.0);
    EXPECT_GE(traits.expand_norm, 0.0);
    EXPECT_LE(traits.expand_norm, 1.0);
    EXPECT_GT(traits.macs_224, 1e7);
  }
}

TEST_F(FbnetSimTest, NoiseKeyIsTheOpIndexHash) {
  // FNV-1a over (op index + 1) per layer; these recorded keys seed every
  // noise stream.
  EXPECT_EQ(sim_.noise_key(biggest_arch()), 0xc6197d6bc33da81dULL);
  std::string e1k3 = "e1k3";
  for (int i = 1; i < kFbnetNumLayers; ++i) e1k3 += "-e1k3";
  EXPECT_EQ(sim_.noise_key(FbnetSpace::instance().arch_from_string(e1k3)),
            0x67ca3783ba361cdbULL);
  // Distinct genotypes essentially never collide.
  std::set<std::uint64_t> keys;
  std::set<std::uint64_t> indices;
  for (int i = 0; i < 2000; ++i) {
    const Arch arch = FbnetSpace::instance().sample(rng_);
    if (indices.insert(FbnetSpace::instance().to_index(arch)).second)
      keys.insert(sim_.noise_key(arch));
  }
  EXPECT_EQ(keys.size(), indices.size());
  EXPECT_THROW(sim_.noise_key(MnasSpace::instance().from_index(0)), Error);
}

TEST_F(FbnetSimTest, WorldSeedMatters) {
  FbnetSpaceSim other(99);
  int diffs = 0;
  for (int i = 0; i < 20; ++i) {
    const Arch arch = FbnetSpace::instance().sample(rng_);
    diffs +=
        std::abs(sim_.latent_quality(arch) - other.latent_quality(arch)) >
        1e-6;
  }
  EXPECT_GT(diffs, 15);
}

}  // namespace
}  // namespace anb
