#include "anb/anb/space_sim.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "anb/fbnet/fbnet_space.hpp"
#include "anb/ir/model_ir.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/util/error.hpp"

namespace anb {
namespace {

constexpr std::uint64_t kWorldSeed = 7;
constexpr int kSamples = 50;

std::vector<TrainingScheme> schemes() {
  TrainingScheme proxy;
  proxy.batch_size = 256;
  proxy.total_epochs = 30;
  proxy.resize_start_epoch = 5;
  proxy.resize_finish_epoch = 20;
  proxy.res_start = 128;
  proxy.res_finish = 192;
  return {reference_scheme(), proxy};
}

std::vector<Arch> sample_archs(const SearchSpace& space) {
  Rng rng(11);
  std::vector<Arch> archs;
  for (int i = 0; i < kSamples; ++i) archs.push_back(space.sample(rng));
  return archs;
}

/// Every genotype-taking method of `sim` must refuse `foreign`.
void expect_rejects(const SpaceSim& sim, const Arch& foreign) {
  const TrainingScheme r = reference_scheme();
  EXPECT_THROW(sim.train(foreign, r, 1), Error);
  EXPECT_THROW(sim.reference_accuracy(foreign), Error);
  EXPECT_THROW(sim.expected_accuracy(foreign, r), Error);
  EXPECT_THROW(sim.training_cost_hours(foreign, r), Error);
  EXPECT_THROW(sim.int8_accuracy_drop(foreign), Error);
  EXPECT_THROW(sim.lower(foreign, 224), Error);
}

/// FNV-1a over the bits of everything `sim` derives from the sampled
/// genotypes: train at three run seeds under both schemes, the noise-free
/// expected accuracy and cost per scheme, the reference accuracy, the int8
/// drop, and lower's per-layer MACs and params at 160 and 224.
std::uint64_t fingerprint(const SpaceSim& sim) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto add = [&hash](std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  };
  const auto add_double = [&add](double v) {
    add(std::bit_cast<std::uint64_t>(v));
  };
  for (const Arch& arch : sample_archs(sim.space())) {
    for (const TrainingScheme& scheme : schemes()) {
      for (std::uint64_t run_seed : {0ULL, 1ULL, 99ULL}) {
        const TrainResult result = sim.train(arch, scheme, run_seed);
        add_double(result.top1);
        add_double(result.gpu_hours);
      }
      add_double(sim.expected_accuracy(arch, scheme));
      add_double(sim.training_cost_hours(arch, scheme));
    }
    add_double(sim.reference_accuracy(arch));
    add_double(sim.int8_accuracy_drop(arch));
    for (int resolution : {160, 224}) {
      for (const Layer& layer : sim.lower(arch, resolution).layers) {
        add(layer.macs);
        add(layer.params);
      }
    }
  }
  return hash;
}

TEST(SpaceSimTest, MnasNetMatchesRecordedValues) {
  const auto sim = make_space_sim(SpaceId::kMnasNet, kWorldSeed);
  const std::uint64_t hash = fingerprint(*sim);
  EXPECT_EQ(hash, 0xec74b92f5f7a2750ULL) << std::hex << hash;
}

TEST(SpaceSimTest, FbnetMatchesRecordedValues) {
  const auto sim = make_space_sim(SpaceId::kFbnet, kWorldSeed);
  const std::uint64_t hash = fingerprint(*sim);
  EXPECT_EQ(hash, 0xf421c1ce3841d091ULL) << std::hex << hash;
}

TEST(SpaceSimTest, EachSimRejectsTheOtherSpacesGenotypes) {
  Rng rng(3);
  const Arch mnas = MnasSpace::instance().sample(rng);
  const Arch fbnet = FbnetSpace::instance().sample(rng);
  expect_rejects(*make_space_sim(SpaceId::kMnasNet, kWorldSeed), fbnet);
  expect_rejects(*make_space_sim(SpaceId::kFbnet, kWorldSeed), mnas);
}

TEST(SpaceSimTest, EachSimScoresItsOwnSpace) {
  EXPECT_EQ(&make_space_sim(SpaceId::kMnasNet, kWorldSeed)->space(),
            &MnasSpace::instance());
  EXPECT_EQ(&make_space_sim(SpaceId::kFbnet, kWorldSeed)->space(),
            &FbnetSpace::instance());
}

TEST(SpaceSimTest, UnregisteredSpaceIdThrows) {
  EXPECT_THROW(make_space_sim(static_cast<SpaceId>(999), kWorldSeed), Error);
}

}  // namespace
}  // namespace anb
