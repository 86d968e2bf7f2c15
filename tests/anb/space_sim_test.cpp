#include "anb/anb/space_sim.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "anb/fbnet/fbnet_sim.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/ir/model_ir.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/trainsim/simulator.hpp"
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

void expect_same_ir(const ModelIR& got, const ModelIR& want) {
  EXPECT_EQ(got.arch, want.arch);
  EXPECT_EQ(got.resolution, want.resolution);
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t i = 0; i < got.layers.size(); ++i) {
    const Layer& a = got.layers[i];
    const Layer& b = want.layers[i];
    EXPECT_EQ(a.kind, b.kind) << "layer " << i;
    EXPECT_EQ(a.name, b.name) << "layer " << i;
    EXPECT_EQ(a.in_h, b.in_h) << "layer " << i;
    EXPECT_EQ(a.in_w, b.in_w) << "layer " << i;
    EXPECT_EQ(a.in_c, b.in_c) << "layer " << i;
    EXPECT_EQ(a.out_h, b.out_h) << "layer " << i;
    EXPECT_EQ(a.out_w, b.out_w) << "layer " << i;
    EXPECT_EQ(a.out_c, b.out_c) << "layer " << i;
    EXPECT_EQ(a.kernel, b.kernel) << "layer " << i;
    EXPECT_EQ(a.stride, b.stride) << "layer " << i;
    EXPECT_EQ(a.macs, b.macs) << "layer " << i;
    EXPECT_EQ(a.params, b.params) << "layer " << i;
    EXPECT_EQ(a.input_elems, b.input_elems) << "layer " << i;
    EXPECT_EQ(a.output_elems, b.output_elems) << "layer " << i;
    EXPECT_EQ(a.weight_elems, b.weight_elems) << "layer " << i;
  }
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

TEST(SpaceSimTest, MnasNetMatchesTheTypedSimulatorBitForBit) {
  const auto sim = make_space_sim(SpaceId::kMnasNet, kWorldSeed);
  const TrainingSimulator typed(kWorldSeed);
  EXPECT_EQ(&sim->space(), &MnasSpace::instance());
  for (const Arch& arch : sample_archs(MnasSpace::instance())) {
    const Architecture blocks = MnasSpace::to_blocks(arch);
    for (const TrainingScheme& scheme : schemes()) {
      for (std::uint64_t run_seed : {0ULL, 1ULL, 99ULL}) {
        const TrainResult got = sim->train(arch, scheme, run_seed);
        const TrainResult want = typed.train(blocks, scheme, run_seed);
        EXPECT_EQ(got.top1, want.top1);
        EXPECT_EQ(got.gpu_hours, want.gpu_hours);
      }
      EXPECT_EQ(sim->expected_accuracy(arch, scheme),
                typed.expected_accuracy(blocks, scheme));
      EXPECT_EQ(sim->training_cost_hours(arch, scheme),
                typed.training_cost_hours(blocks, scheme));
    }
    EXPECT_EQ(sim->reference_accuracy(arch), typed.reference_accuracy(blocks));
    EXPECT_EQ(sim->int8_accuracy_drop(arch), typed.int8_accuracy_drop(blocks));
    for (int resolution : {160, 224}) {
      expect_same_ir(sim->lower(arch, resolution), build_ir(blocks, resolution));
    }
  }
}

TEST(SpaceSimTest, FbnetMatchesTheTypedSimulatorBitForBit) {
  const auto sim = make_space_sim(SpaceId::kFbnet, kWorldSeed);
  const FbnetTrainingSimulator typed(kWorldSeed);
  EXPECT_EQ(&sim->space(), &FbnetSpace::instance());
  for (const Arch& arch : sample_archs(FbnetSpace::instance())) {
    const FbnetArchitecture ops = FbnetSpace::to_ops(arch);
    for (const TrainingScheme& scheme : schemes()) {
      for (std::uint64_t run_seed : {0ULL, 1ULL, 99ULL}) {
        const TrainResult got = sim->train(arch, scheme, run_seed);
        const TrainResult want = typed.train(ops, scheme, run_seed);
        EXPECT_EQ(got.top1, want.top1);
        EXPECT_EQ(got.gpu_hours, want.gpu_hours);
      }
      EXPECT_EQ(sim->expected_accuracy(arch, scheme),
                typed.expected_accuracy(ops, scheme));
      EXPECT_EQ(sim->training_cost_hours(arch, scheme),
                typed.training_cost_hours(ops, scheme));
    }
    EXPECT_EQ(sim->reference_accuracy(arch), typed.reference_accuracy(ops));
    EXPECT_EQ(sim->int8_accuracy_drop(arch), typed.int8_accuracy_drop(ops));
    for (int resolution : {160, 224}) {
      expect_same_ir(sim->lower(arch, resolution),
                     build_fbnet_ir(ops, resolution));
    }
  }
}

TEST(SpaceSimTest, FbnetInt8DropMatchesRecordedValues) {
  // FBNet's quantization model, pinned bit for bit: an FNV-1a hash of
  // int8_accuracy_drop's bits over the sampled architectures.
  const auto sim = make_space_sim(SpaceId::kFbnet, kWorldSeed);
  std::uint64_t hash = 1469598103934665603ULL;
  for (const Arch& arch : sample_archs(FbnetSpace::instance())) {
    const auto bits =
        std::bit_cast<std::uint64_t>(sim->int8_accuracy_drop(arch));
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(hash, 0x5a4f416d52723af0ULL) << std::hex << hash;
}

TEST(SpaceSimTest, EachSimRejectsTheOtherSpacesGenotypes) {
  Rng rng(3);
  const Arch mnas = MnasSpace::instance().sample(rng);
  const Arch fbnet = FbnetSpace::instance().sample(rng);
  expect_rejects(*make_space_sim(SpaceId::kMnasNet, kWorldSeed), fbnet);
  expect_rejects(*make_space_sim(SpaceId::kFbnet, kWorldSeed), mnas);
}

TEST(SpaceSimTest, UnregisteredSpaceIdThrows) {
  EXPECT_THROW(make_space_sim(static_cast<SpaceId>(999), kWorldSeed), Error);
}

}  // namespace
}  // namespace anb
