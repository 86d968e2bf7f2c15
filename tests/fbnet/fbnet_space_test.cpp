#include "anb/fbnet/fbnet_space.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "anb/util/error.hpp"

namespace anb {
namespace {

const SearchSpace& sp() { return FbnetSpace::instance(); }

/// Canonical string with `op` on every layer.
std::string all_op_string(FbnetOp op) {
  std::string s = fbnet_op_name(op);
  for (int i = 1; i < kFbnetNumLayers; ++i)
    s += std::string("-") + fbnet_op_name(op);
  return s;
}

Arch all_op(FbnetOp op) { return sp().arch_from_string(all_op_string(op)); }

TEST(FbnetSpaceTest, SlotTableStructure) {
  const auto& slots = FbnetSpace::slots();
  // 1 + 4*5 + 1 = 22 layers; four strided stage entries.
  int strided = 0, skip_allowed = 0;
  for (const auto& slot : slots) {
    strided += slot.stride == 2;
    skip_allowed += slot.skip_allowed;
  }
  EXPECT_EQ(strided, 4);
  // skip legal: stage-1 layer (shape preserved) + 3 trailing layers in each
  // of the five 4-layer stages.
  EXPECT_EQ(skip_allowed, 16);
  EXPECT_EQ(slots.back().out_c, 352);
}

TEST(FbnetSpaceTest, CardinalityAboutTenToTheSeventeen) {
  // 6 no-skip layers with 6 ops, 16 skip layers with 7 ops.
  EXPECT_NEAR(FbnetSpace::log10_cardinality(),
              6.0 * std::log10(6.0) + 16.0 * std::log10(7.0), 1e-9);
  EXPECT_GT(FbnetSpace::log10_cardinality(), 17.0);
}

TEST(FbnetSpaceTest, ValidationEnforcesSkipLegality) {
  EXPECT_NO_THROW(sp().validate(all_op(FbnetOp::kE6K5)));
  // Strided layers can't skip.
  EXPECT_THROW(all_op(FbnetOp::kSkip), Error);

  Arch legal_skip = all_op(FbnetOp::kE3K3);
  const auto skip = static_cast<std::int8_t>(FbnetOp::kSkip);
  legal_skip.d[2] = skip;  // a trailing stage-2 layer
  EXPECT_NO_THROW(sp().validate(legal_skip));
  legal_skip.d[1] = skip;  // first (strided) layer of stage 2
  EXPECT_THROW(sp().validate(legal_skip), Error);
}

TEST(FbnetSpaceTest, SampleValidAndVaried) {
  Rng rng(1);
  std::set<std::uint64_t> unique;
  for (int i = 0; i < 300; ++i) {
    const Arch arch = sp().sample(rng);
    sp().validate(arch);
    unique.insert(sp().to_index(arch));
  }
  EXPECT_GT(unique.size(), 295u);
}

TEST(FbnetSpaceTest, MutateChangesOneLayer) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const Arch arch = sp().sample(rng);
    const Arch mutant = sp().mutate(arch, rng);
    sp().validate(mutant);
    int diffs = 0;
    for (int l = 0; l < kFbnetNumLayers; ++l)
      diffs += arch.d[static_cast<std::size_t>(l)] !=
               mutant.d[static_cast<std::size_t>(l)];
    EXPECT_EQ(diffs, 1);
  }
}

TEST(FbnetSpaceTest, StringRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Arch arch = sp().sample(rng);
    EXPECT_EQ(sp().arch_from_string(sp().arch_to_string(arch)), arch);
  }
  EXPECT_EQ(sp().arch_to_string(all_op(FbnetOp::kE6K5)),
            all_op_string(FbnetOp::kE6K5));
  EXPECT_THROW(sp().arch_from_string("e1k3"), Error);
  EXPECT_THROW(sp().arch_from_string(
                   "bogus-" + all_op_string(FbnetOp::kE1K3).substr(5)),
               Error);
  // 23 layers.
  EXPECT_THROW(
      sp().arch_from_string(all_op_string(FbnetOp::kE1K3) + "-e1k3"), Error);
  // A trailing '-' is not the canonical spelling of a valid string.
  const std::string valid = all_op_string(FbnetOp::kE3K3);
  ASSERT_NO_THROW(sp().arch_from_string(valid));
  EXPECT_THROW(sp().arch_from_string(valid + "-"), Error);
  // A genotype outside the space has no string form.
  Arch bad = all_op(FbnetOp::kE3K3);
  bad.d[1] = static_cast<std::int8_t>(FbnetOp::kSkip);  // strided layer
  EXPECT_THROW(sp().arch_to_string(bad), Error);
}

TEST(FbnetSpaceTest, FeaturesOneHot) {
  EXPECT_EQ(FbnetSpace::instance().feature_dim(), 154);
  Rng rng(4);
  const auto f = sp().features(sp().sample(rng));
  ASSERT_EQ(f.size(), 154u);
  double total = 0.0;
  for (double v : f) {
    EXPECT_TRUE(v == 0.0 || v == 1.0);
    total += v;
  }
  EXPECT_DOUBLE_EQ(total, kFbnetNumLayers);
}

TEST(FbnetSpaceTest, OpHelpers) {
  EXPECT_EQ(fbnet_op_expansion(FbnetOp::kE6K5), 6);
  EXPECT_EQ(fbnet_op_kernel(FbnetOp::kE6K5), 5);
  EXPECT_EQ(fbnet_op_expansion(FbnetOp::kE1K3), 1);
  EXPECT_THROW(fbnet_op_expansion(FbnetOp::kSkip), Error);
  EXPECT_THROW(fbnet_op_kernel(FbnetOp::kSkip), Error);
  EXPECT_STREQ(fbnet_op_name(FbnetOp::kSkip), "skip");
}

// --- Interface contract ----------------------------------------------------
// FbnetSpace as seen through the polymorphic SearchSpace interface: the
// same contracts space_test.cpp pins for MnasSpace, at the points where
// FBNet differs (mixed per-layer radix from skip legality).

TEST(FbnetSpaceContract, RegistryResolvesFbnet) {
  register_builtin_spaces();
  EXPECT_EQ(&space(SpaceId::kFbnet), &FbnetSpace::instance());
  EXPECT_EQ(&space_from_name("fbnet"), &FbnetSpace::instance());
  EXPECT_THROW(space_from_name("FBNet"), Error);  // exact-match only
}

TEST(FbnetSpaceContract, CardinalityMatchesDecisionSizes) {
  const std::vector<int>& sizes = sp().decision_sizes();
  ASSERT_EQ(sizes.size(), static_cast<std::size_t>(kFbnetNumLayers));
  std::uint64_t want = 1;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    EXPECT_EQ(sizes[static_cast<std::size_t>(i)], FbnetSpace::num_ops(i));
    want *= static_cast<std::uint64_t>(sizes[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sp().cardinality(), want);
}

TEST(FbnetSpaceContract, IndexBijectionAtBounds) {
  // First and last points of the mixed-radix enumeration round-trip, and
  // one past the end is rejected.
  const std::uint64_t last = sp().cardinality() - 1;
  for (const std::uint64_t index : {std::uint64_t{0}, std::uint64_t{1}, last}) {
    const Arch arch = sp().from_index(index);
    EXPECT_TRUE(sp().is_valid(arch)) << index;
    EXPECT_EQ(sp().to_index(arch), index);
  }
  EXPECT_THROW(sp().from_index(sp().cardinality()), Error);
}

TEST(FbnetSpaceContract, IndexBijectionAtRandomPoints) {
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const Arch arch = sp().sample(rng);
    const std::uint64_t index = sp().to_index(arch);
    EXPECT_LT(index, sp().cardinality());
    EXPECT_EQ(sp().to_index(sp().from_index(index)), index);
  }
}

TEST(FbnetSpaceContract, SkipLegalityHoldsThroughTheInterface) {
  // Every decision byte below the layer's radix is in-space by
  // construction: skip is only enumerable where it is legal, so NO valid
  // genotype decodes to a skip on a strided layer.
  Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const Arch arch = sp().sample(rng);
    const auto& slots = FbnetSpace::slots();
    for (int l = 0; l < kFbnetNumLayers; ++l) {
      if (FbnetSpace::op_at(arch, l) == FbnetOp::kSkip) {
        EXPECT_TRUE(slots[static_cast<std::size_t>(l)].skip_allowed) << l;
      }
    }
  }
  // And a genotype forged to skip on a strided layer is invalid.
  Arch forged = sp().sample(rng);
  forged.d[0] = static_cast<std::int8_t>(FbnetSpace::num_ops(0));
  EXPECT_FALSE(sp().is_valid(forged));
}

TEST(FbnetSpaceContract, MutateAlwaysDiffers) {
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    const Arch arch = sp().sample(rng);
    const Arch mutant = sp().mutate(arch, rng);
    EXPECT_TRUE(sp().is_valid(mutant));
    EXPECT_NE(sp().to_index(mutant), sp().to_index(arch));
  }
}

TEST(FbnetSpaceContract, FeaturesAreDeterministic) {
  Rng rng(34);
  for (int i = 0; i < 50; ++i) {
    const Arch arch = sp().sample(rng);
    const std::vector<double> once = sp().features(arch);
    ASSERT_EQ(once.size(), static_cast<std::size_t>(sp().feature_dim()));
    EXPECT_EQ(once, sp().features(arch));  // pure function of the genotype
    // And identical through a string round-trip of the genotype.
    EXPECT_EQ(once, sp().features(sp().arch_from_string(
                        sp().arch_to_string(arch))));
  }
}

TEST(FbnetIrTest, LoweringShapesAndComplexity) {
  const ModelIR big = build_fbnet_ir(all_op(FbnetOp::kE6K5), 224);
  // Shapes chain (skip Scale side-path joins as in the MnasNet tests).
  for (std::size_t l = 1; l < big.layers.size(); ++l) {
    if (big.layers[l].kind == OpKind::kScale) continue;
    EXPECT_EQ(big.layers[l].in_c, big.layers[l - 1].out_c)
        << big.layers[l].name;
  }
  // FBNet-max ~ 800M MACs; minimal (max skips, e1k3 elsewhere) far smaller.
  std::string minimal;
  for (const auto& slot : FbnetSpace::slots()) {
    if (!minimal.empty()) minimal += '-';
    minimal += slot.skip_allowed ? "skip" : "e1k3";
  }
  const ModelIR small = build_fbnet_ir(sp().arch_from_string(minimal), 224);
  EXPECT_GT(big.total_macs(), 3 * small.total_macs());
  // Log-MAC bounds used by the simulator's size normalization.
  EXPECT_GT(std::log(static_cast<double>(small.total_macs())), 17.4);
  EXPECT_LT(std::log(static_cast<double>(big.total_macs())), 21.0);
}

TEST(FbnetIrTest, SkipContributesNothing) {
  const Arch base = all_op(FbnetOp::kE3K3);
  Arch skipped = base;
  skipped.d[3] = static_cast<std::int8_t>(FbnetOp::kSkip);
  const ModelIR a = build_fbnet_ir(base, 224);
  const ModelIR b = build_fbnet_ir(skipped, 224);
  EXPECT_LT(b.total_macs(), a.total_macs());
  EXPECT_LT(b.layers.size(), a.layers.size());
}

TEST(FbnetIrTest, InvalidInputsThrow) {
  // Skip on every layer, the strided ones included.
  Arch all_skip = all_op(FbnetOp::kE3K3);
  for (int i = 0; i < kFbnetNumLayers; ++i)
    all_skip.d[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(FbnetOp::kSkip);
  EXPECT_THROW(build_fbnet_ir(all_skip, 224), Error);
  // A MnasNet genotype is not an FBNet one.
  EXPECT_THROW(build_fbnet_ir(MnasSpace::instance().from_index(0), 224),
               Error);
  EXPECT_THROW(build_fbnet_ir(all_op(FbnetOp::kE3K3), 8), Error);
}

}  // namespace
}  // namespace anb
