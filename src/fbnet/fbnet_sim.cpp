#include "anb/fbnet/fbnet_sim.hpp"

#include <algorithm>
#include <array>

#include "anb/util/error.hpp"

namespace anb {

namespace {

// Position importance: the 22 slots grouped by stage, later stages heavier
// (same shape rationale as the MnasNet simulator's stage weights).
double layer_weight(int layer) {
  static const std::array<double, 7> stage_weight{0.40, 0.55, 0.70, 1.00,
                                                  1.10, 1.25, 0.90};
  static const std::array<int, 7> stage_layers{1, 4, 4, 4, 4, 4, 1};
  int remaining = layer;
  for (int s = 0; s < 7; ++s) {
    if (remaining < stage_layers[static_cast<std::size_t>(s)])
      return stage_weight[static_cast<std::size_t>(s)] /
             stage_layers[static_cast<std::size_t>(s)];
    remaining -= stage_layers[static_cast<std::size_t>(s)];
  }
  throw Error("layer_weight: layer out of range");
}

double op_gain(FbnetOp op, int layer) {
  if (op == FbnetOp::kSkip) return 0.0;
  double gain = 0.0;
  switch (fbnet_op_expansion(op)) {
    case 1: gain = 0.0; break;
    case 3: gain = 1.6; break;
    case 6: gain = 2.3; break;
    default: break;
  }
  // 5x5 kernels pay off in the mid-network receptive-field growth region.
  if (fbnet_op_kernel(op) == 5) {
    gain += (layer >= 5 && layer <= 16) ? 0.35 : 0.10;
  }
  return gain;
}

}  // namespace

FbnetSpaceSim::FbnetSpaceSim(std::uint64_t world_seed)
    : SpaceSim(FbnetSpace::instance(), world_seed,
               {.motif_salt = 0xFB307F1FULL,
                .num_motifs = 48,
                .motif_weight_sigma = 0.14,
                .acc_floor = 0.48,
                .acc_range = 0.46,
                // log-MAC bounds at 224 (all-skip-eligible minimal vs
                // all-e6k5 maximal; verified in fbnet tests).
                .log_macs_min = 17.5,
                .log_macs_max = 20.5}) {}

std::uint64_t FbnetSpaceSim::noise_key(const Arch& arch) const {
  space().validate(arch);
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64 offset basis
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    h ^= static_cast<std::uint64_t>(arch.d[static_cast<std::size_t>(i)]) + 1;
    h *= 0x100000001B3ULL;  // FNV-1a 64 prime
  }
  return h;
}

SpaceSim::Terms FbnetSpaceSim::terms(const Arch& arch) const {
  space().validate(arch);
  Terms terms;
  double q = 0.0;
  int non_skip = 0;
  double mean_expansion = 0.0;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const auto op = FbnetSpace::op_at(arch, i);
    q += layer_weight(i) * op_gain(op, i);
    if (op == FbnetOp::kSkip) continue;
    ++non_skip;
    mean_expansion += fbnet_op_expansion(op);
  }
  // Too many skipped layers starve the network of depth.
  if (non_skip < 14) q -= 0.22 * (14 - non_skip);
  terms.quality = q;

  terms.macs_224 = static_cast<double>(build_fbnet_ir(arch, 224).total_macs());
  mean_expansion /= std::max(1, non_skip);
  terms.depth_norm = std::clamp((non_skip - 6) / 16.0, 0.0, 1.0);
  terms.expand_norm = std::clamp((mean_expansion - 1.0) / 5.0, 0.0, 1.0);
  return terms;
}

double FbnetSpaceSim::int8_accuracy_drop(const Arch& arch) const {
  space().validate(arch);
  int wide = 0;
  int skips = 0;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const auto op = FbnetSpace::op_at(arch, i);
    if (op == FbnetOp::kE6K3 || op == FbnetOp::kE6K5) ++wide;
    if (op == FbnetOp::kSkip) ++skips;
  }
  return 0.002 + 0.0003 * wide - 0.0001 * skips;
}

ModelIR FbnetSpaceSim::lower(const Arch& arch, int resolution) const {
  return build_fbnet_ir(arch, resolution);
}

}  // namespace anb
