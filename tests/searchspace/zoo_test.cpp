#include "anb/searchspace/zoo.hpp"

#include <gtest/gtest.h>

#include <set>

#include "anb/searchspace/space.hpp"

namespace anb {
namespace {

TEST(ZooTest, AllReferenceModelsAreInTheSpace) {
  const SearchSpace& sp = MnasSpace::instance();
  for (const auto& model : reference_zoo()) {
    EXPECT_TRUE(sp.is_valid(model.arch)) << model.name;
    EXPECT_FALSE(model.name.empty());
  }
}

TEST(ZooTest, ZooHasFourDistinctBaselines) {
  const SearchSpace& sp = MnasSpace::instance();
  const auto zoo = reference_zoo();
  EXPECT_EQ(zoo.size(), 4u);
  std::set<std::uint64_t> unique;
  std::set<std::string> names;
  for (const auto& model : zoo) {
    unique.insert(sp.to_index(model.arch));
    names.insert(model.name);
  }
  EXPECT_EQ(unique.size(), zoo.size());
  EXPECT_EQ(names.size(), zoo.size());
}

TEST(ZooTest, EffnetB0UsesSeEverywhere) {
  const auto b0 = effnet_b0_like();
  for (int b = 0; b < kNumBlocks; ++b) EXPECT_TRUE(MnasSpace::se(b0.arch, b));
  EXPECT_EQ(MnasSpace::expansion(b0.arch, 0), 1);  // stage 1 is e=1 in B0
}

TEST(ZooTest, EdgeTpuVariantAvoidsSe) {
  // EfficientNet-EdgeTPU drops SE because DPU-style accelerators stall on
  // the global-pool side path — the motif Fig. 6 relies on.
  const auto edgetpu = effnet_edgetpu_s_like();
  for (int b = 0; b < kNumBlocks; ++b)
    EXPECT_FALSE(MnasSpace::se(edgetpu.arch, b));
}

TEST(ZooTest, NamesAreStable) {
  EXPECT_EQ(effnet_b0_like().name, "effnet-b0");
  EXPECT_EQ(mobilenet_v3_like().name, "mobilenetv3-l");
  EXPECT_EQ(effnet_edgetpu_s_like().name, "effnet-edgetpu-s");
  EXPECT_EQ(mnasnet_a1_like().name, "mnasnet-a1");
}

}  // namespace
}  // namespace anb
