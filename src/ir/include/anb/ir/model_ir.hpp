#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "anb/searchspace/space.hpp"

namespace anb {

/// Primitive operator kinds produced by expanding an MnasNet-space model.
///
/// Squeeze-and-excitation is decomposed into GlobalAvgPool + two
/// FullyConnected layers + a channel-wise Scale so device models can price
/// each stage separately (the global pooling is what stalls DPU pipelines).
/// Activations and batch-norm are folded into the preceding conv, matching
/// deployment graphs after standard inference-time fusion.
enum class OpKind {
  kConv2d,           ///< regular convolution (stem, expand/project 1x1, head)
  kDepthwiseConv2d,  ///< depthwise k×k convolution
  kGlobalAvgPool,    ///< spatial global average pooling
  kFullyConnected,   ///< dense layer (SE squeeze/excite, classifier)
  kScale,            ///< channel-wise multiply (SE apply)
  kAdd,              ///< element-wise residual addition
};

const char* op_kind_name(OpKind kind);

/// One executable layer with fully resolved tensor shapes and costs.
/// Element counts are stored instead of bytes so devices can apply their own
/// datatype width (fp16 on GPUs/TPUs, int8 on DPUs).
struct Layer {
  OpKind kind = OpKind::kConv2d;
  std::string name;  ///< e.g. "b3.l1.dwconv"

  int in_h = 1, in_w = 1, in_c = 1;
  int out_h = 1, out_w = 1, out_c = 1;
  int kernel = 1;
  int stride = 1;

  std::uint64_t macs = 0;          ///< multiply-accumulate count
  std::uint64_t params = 0;        ///< weights incl. folded BN scale/shift
  std::uint64_t input_elems = 0;   ///< activation reads
  std::uint64_t output_elems = 0;  ///< activation writes
  std::uint64_t weight_elems = 0;  ///< parameter reads
};

/// A fully expanded model: an architecture lowered onto its space's fixed
/// macro-skeleton (build_ir: MnasNet, build_fbnet_ir: FBNet) at a given
/// input resolution.
struct ModelIR {
  int resolution = 224;
  std::vector<Layer> layers;

  std::uint64_t total_macs() const;
  std::uint64_t total_params() const;
  /// Total activation element traffic (reads + writes across layers).
  std::uint64_t total_activation_elems() const;
  /// GFLOPs counting one MAC as two floating-point operations.
  double gflops() const;
  /// Parameter count in millions.
  double mparams() const;
};

/// Fixed MnasNet macro-skeleton constants (not searchable, as in the paper):
/// stem 32ch s2; stage widths 16/24/40/80/112/192/320 with strides
/// 1/2/2/2/1/2/1; head 1280ch; 1000 classes.
struct MacroSkeleton {
  static constexpr int kStemChannels = 32;
  static constexpr int kHeadChannels = 1280;
  static constexpr int kNumClasses = 1000;
  static const std::array<int, kNumBlocks>& stage_channels();
  static const std::array<int, kNumBlocks>& stage_strides();
  /// SE bottleneck width = max(1, block_input_channels / 4), the
  /// EfficientNet convention.
  static int se_channels(int block_in_c);
};

/// Expand the MnasNet genotype `arch` at `resolution` (must be in
/// [32, 1024]). Throws anb::Error unless `arch` is a member of MnasSpace.
ModelIR build_ir(const Arch& arch, int resolution = 224);

}  // namespace anb
