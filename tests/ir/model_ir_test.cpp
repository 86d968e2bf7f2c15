#include "anb/ir/model_ir.hpp"

#include <gtest/gtest.h>

#include "anb/searchspace/space.hpp"
#include "anb/searchspace/zoo.hpp"
#include "anb/util/error.hpp"
#include "anb/util/rng.hpp"
#include "uniform_arch.hpp"

namespace anb {
namespace {

TEST(ModelIrTest, EffnetB0LikeMatchesKnownComplexity) {
  // Real EfficientNet-B0: ~0.39B MACs, ~5.3M params at 224x224. Our B0-like
  // clip (L capped at 3) should land close below.
  const ModelIR ir = build_ir(effnet_b0_like().arch, 224);
  EXPECT_GT(ir.total_macs(), 300e6);
  EXPECT_LT(ir.total_macs(), 450e6);
  EXPECT_GT(ir.mparams(), 3.5);
  EXPECT_LT(ir.mparams(), 6.5);
}

TEST(ModelIrTest, StemAndHeadStructure) {
  const ModelIR ir = build_ir(uniform_arch(1, 3, 1, false), 224);
  ASSERT_GE(ir.layers.size(), 4u);
  const Layer& stem = ir.layers.front();
  EXPECT_EQ(stem.kind, OpKind::kConv2d);
  EXPECT_EQ(stem.in_c, 3);
  EXPECT_EQ(stem.out_c, MacroSkeleton::kStemChannels);
  EXPECT_EQ(stem.stride, 2);
  EXPECT_EQ(stem.out_h, 112);

  const Layer& fc = ir.layers.back();
  EXPECT_EQ(fc.kind, OpKind::kFullyConnected);
  EXPECT_EQ(fc.out_c, MacroSkeleton::kNumClasses);
  const Layer& pool = ir.layers[ir.layers.size() - 2];
  EXPECT_EQ(pool.kind, OpKind::kGlobalAvgPool);
  const Layer& head = ir.layers[ir.layers.size() - 3];
  EXPECT_EQ(head.out_c, MacroSkeleton::kHeadChannels);
}

TEST(ModelIrTest, ShapesChainCorrectly) {
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const ModelIR ir = build_ir(MnasSpace::instance().sample(rng), 224);
    for (std::size_t l = 1; l < ir.layers.size(); ++l) {
      const Layer& prev = ir.layers[l - 1];
      const Layer& cur = ir.layers[l];
      if (cur.kind == OpKind::kScale) continue;  // side-path join
      EXPECT_EQ(cur.in_h, prev.out_h) << ir.layers[l].name;
      EXPECT_EQ(cur.in_w, prev.out_w) << ir.layers[l].name;
      EXPECT_EQ(cur.in_c, prev.out_c) << ir.layers[l].name;
    }
  }
}

TEST(ModelIrTest, SpatialDownsamplingBy32) {
  Rng rng(2);
  const ModelIR ir = build_ir(MnasSpace::instance().sample(rng), 224);
  // Stem s2 + four s2 stages -> 224 / 32 = 7 before head pooling.
  const Layer& pool = ir.layers[ir.layers.size() - 2];
  EXPECT_EQ(pool.in_h, 7);
  EXPECT_EQ(pool.in_w, 7);
}

TEST(ModelIrTest, ExpansionOneSkipsExpandConv) {
  const ModelIR ir = build_ir(uniform_arch(1, 3, 1, false), 224);
  for (const auto& layer : ir.layers) {
    EXPECT_EQ(layer.name.find(".expand"), std::string::npos) << layer.name;
  }
  const ModelIR ir6 = build_ir(uniform_arch(6, 3, 1, false), 224);
  int expands = 0;
  for (const auto& layer : ir6.layers)
    expands += layer.name.find(".expand") != std::string::npos;
  EXPECT_EQ(expands, kNumBlocks);
}

TEST(ModelIrTest, SeDecomposition) {
  const ModelIR with_se = build_ir(uniform_arch(4, 3, 1, true), 224);
  int pools = 0, squeezes = 0, excites = 0, scales = 0;
  for (const auto& layer : with_se.layers) {
    pools += layer.name.find(".se.pool") != std::string::npos;
    squeezes += layer.name.find(".se.squeeze") != std::string::npos;
    excites += layer.name.find(".se.excite") != std::string::npos;
    scales += layer.name.find(".se.scale") != std::string::npos;
  }
  EXPECT_EQ(pools, kNumBlocks);
  EXPECT_EQ(squeezes, kNumBlocks);
  EXPECT_EQ(excites, kNumBlocks);
  EXPECT_EQ(scales, kNumBlocks);

  const ModelIR no_se = build_ir(uniform_arch(4, 3, 1, false), 224);
  EXPECT_GT(with_se.layers.size(), no_se.layers.size());
  EXPECT_GT(with_se.total_params(), no_se.total_params());
}

TEST(ModelIrTest, ResidualOnlyOnShapePreservingLayers) {
  const ModelIR ir = build_ir(uniform_arch(4, 3, 3, false), 224);
  for (std::size_t l = 0; l < ir.layers.size(); ++l) {
    const Layer& layer = ir.layers[l];
    if (layer.kind != OpKind::kAdd) continue;
    // ".l1." first layers of strided stages cannot be residual.
    EXPECT_EQ(layer.name.find(".l1.residual") != std::string::npos &&
                  layer.name.find("b1.") == std::string::npos &&
                  layer.name.find("b5.") == std::string::npos &&
                  layer.name.find("b7.") == std::string::npos,
              false)
        << layer.name;
  }
  // With L=3 every stage has at least 2 residual adds (layers 2,3).
  int adds = 0;
  for (const auto& layer : ir.layers) adds += layer.kind == OpKind::kAdd;
  EXPECT_GE(adds, 2 * kNumBlocks);
}

TEST(ModelIrTest, MacsScaleWithOptions) {
  const auto base = build_ir(uniform_arch(1, 3, 1, false), 224).total_macs();
  EXPECT_GT(build_ir(uniform_arch(4, 3, 1, false), 224).total_macs(), base);
  EXPECT_GT(build_ir(uniform_arch(1, 5, 1, false), 224).total_macs(), base);
  EXPECT_GT(build_ir(uniform_arch(1, 3, 3, false), 224).total_macs(), base);
  EXPECT_GT(build_ir(uniform_arch(1, 3, 1, true), 224).total_macs(), base);
}

TEST(ModelIrTest, MacsScaleQuadraticallyWithResolution) {
  Rng rng(3);
  const Arch a = MnasSpace::instance().sample(rng);
  const auto m224 = static_cast<double>(build_ir(a, 224).total_macs());
  const auto m112 = static_cast<double>(build_ir(a, 112).total_macs());
  // FC/SE layers are resolution-independent, so the ratio is slightly
  // below exactly 4.
  EXPECT_GT(m224 / m112, 3.0);
  EXPECT_LT(m224 / m112, 4.2);
}

TEST(ModelIrTest, ParamsIndependentOfResolution) {
  Rng rng(4);
  const Arch a = MnasSpace::instance().sample(rng);
  EXPECT_EQ(build_ir(a, 224).total_params(), build_ir(a, 160).total_params());
}

TEST(ModelIrTest, DepthwiseKernelRecorded) {
  const ModelIR ir = build_ir(uniform_arch(1, 5, 1, false), 224);
  for (const auto& layer : ir.layers) {
    if (layer.kind == OpKind::kDepthwiseConv2d) {
      EXPECT_EQ(layer.kernel, 5);
    }
  }
}

TEST(ModelIrTest, RejectsBadInputs) {
  Arch bad = uniform_arch(1, 3, 1, false);
  bad.d[0] = 3;  // expansion index out of range
  EXPECT_THROW(build_ir(bad, 224), Error);
  Arch foreign = bad;
  foreign.d[0] = 0;
  foreign.space = SpaceId::kFbnet;  // right bytes, wrong tag
  EXPECT_THROW(build_ir(foreign, 224), Error);
  Rng rng(5);
  const Arch ok = MnasSpace::instance().sample(rng);
  EXPECT_THROW(build_ir(ok, 16), Error);
  EXPECT_THROW(build_ir(ok, 2048), Error);
}

TEST(ModelIrTest, OpKindNamesComplete) {
  EXPECT_STREQ(op_kind_name(OpKind::kConv2d), "conv2d");
  EXPECT_STREQ(op_kind_name(OpKind::kDepthwiseConv2d), "dwconv2d");
  EXPECT_STREQ(op_kind_name(OpKind::kGlobalAvgPool), "gavgpool");
  EXPECT_STREQ(op_kind_name(OpKind::kFullyConnected), "fc");
  EXPECT_STREQ(op_kind_name(OpKind::kScale), "scale");
  EXPECT_STREQ(op_kind_name(OpKind::kAdd), "add");
}

TEST(ModelIrTest, GflopsCountsTwoPerMac) {
  Rng rng(6);
  const ModelIR ir = build_ir(MnasSpace::instance().sample(rng), 224);
  EXPECT_NEAR(ir.gflops(),
              2.0 * static_cast<double>(ir.total_macs()) / 1e9, 1e-9);
}

// Property: every layer's accounting fields are self-consistent.
class IrLayerProperty : public ::testing::TestWithParam<int> {};

TEST_P(IrLayerProperty, LayerAccountingConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 900);
  const ModelIR ir = build_ir(MnasSpace::instance().sample(rng), 224);
  for (const auto& layer : ir.layers) {
    EXPECT_GT(layer.output_elems, 0u) << layer.name;
    EXPECT_GT(layer.input_elems, 0u) << layer.name;
    EXPECT_GT(layer.macs, 0u) << layer.name;
    if (layer.kind == OpKind::kConv2d ||
        layer.kind == OpKind::kDepthwiseConv2d ||
        layer.kind == OpKind::kFullyConnected) {
      EXPECT_GT(layer.params, 0u) << layer.name;
      EXPECT_GE(layer.params, layer.weight_elems) << layer.name;
    } else {
      EXPECT_EQ(layer.params, 0u) << layer.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomArchs, IrLayerProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace anb
