#include "anb/ir/model_ir.hpp"

#include "anb/ir/builder.hpp"

#include <array>

#include "anb/searchspace/space.hpp"
#include "anb/util/error.hpp"

namespace anb {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kDepthwiseConv2d: return "dwconv2d";
    case OpKind::kGlobalAvgPool: return "gavgpool";
    case OpKind::kFullyConnected: return "fc";
    case OpKind::kScale: return "scale";
    case OpKind::kAdd: return "add";
  }
  return "unknown";
}

const std::array<int, kNumBlocks>& MacroSkeleton::stage_channels() {
  static const std::array<int, kNumBlocks> channels{16, 24,  40, 80,
                                                    112, 192, 320};
  return channels;
}

const std::array<int, kNumBlocks>& MacroSkeleton::stage_strides() {
  static const std::array<int, kNumBlocks> strides{1, 2, 2, 2, 1, 2, 1};
  return strides;
}

int MacroSkeleton::se_channels(int block_in_c) {
  ANB_CHECK(block_in_c >= 1, "se_channels: block_in_c must be >= 1");
  return std::max(1, block_in_c / 4);
}

std::uint64_t ModelIR::total_macs() const {
  std::uint64_t total = 0;
  for (const auto& l : layers) total += l.macs;
  return total;
}

std::uint64_t ModelIR::total_params() const {
  std::uint64_t total = 0;
  for (const auto& l : layers) total += l.params;
  return total;
}

std::uint64_t ModelIR::total_activation_elems() const {
  std::uint64_t total = 0;
  for (const auto& l : layers) total += l.input_elems + l.output_elems;
  return total;
}

double ModelIR::gflops() const {
  return 2.0 * static_cast<double>(total_macs()) / 1e9;
}

double ModelIR::mparams() const {
  return static_cast<double>(total_params()) / 1e6;
}

ModelIR build_ir(const Arch& arch, int resolution) {
  MnasSpace::instance().validate(arch);
  ANB_CHECK(resolution >= 32 && resolution <= 1024,
            "build_ir: resolution must be in [32, 1024]");

  ModelIR ir;
  ir.resolution = resolution;

  IrBuilder b(resolution);
  b.conv("stem.conv", MacroSkeleton::kStemChannels, 3, 2);

  for (int s = 0; s < kNumBlocks; ++s) {
    const int layers = MnasSpace::layers(arch, s);
    const int out_c =
        MacroSkeleton::stage_channels()[static_cast<std::size_t>(s)];
    const int stage_stride =
        MacroSkeleton::stage_strides()[static_cast<std::size_t>(s)];
    for (int layer = 0; layer < layers; ++layer) {
      const std::string prefix =
          "b" + std::to_string(s + 1) + ".l" + std::to_string(layer + 1);
      const int stride = layer == 0 ? stage_stride : 1;
      b.mbconv(prefix, out_c, MnasSpace::expansion(arch, s),
               MnasSpace::kernel(arch, s), stride, MnasSpace::se(arch, s));
    }
  }

  b.conv("head.conv", MacroSkeleton::kHeadChannels, 1, 1);
  b.global_avg_pool("head.pool");
  b.fully_connected("head.fc", MacroSkeleton::kNumClasses);

  ir.layers = b.take();
  return ir;
}

}  // namespace anb
