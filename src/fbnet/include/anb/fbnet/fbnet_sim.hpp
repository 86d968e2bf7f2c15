#pragma once

#include <cstdint>

#include "anb/fbnet/fbnet_space.hpp"
#include "anb/trainsim/space_sim.hpp"

namespace anb {

/// Training simulator for the FBNet-style generalizability space.
///
/// Shares everything but the latent structural terms with the MnasNet
/// simulator (SpaceSim): per-layer op gains with position-dependent
/// weights and a depth/capacity balance over skip choices. This is what
/// "generalizability study" means operationally — the paper's proxy-search
/// and surrogate pipeline runs unmodified against this space.
class FbnetSpaceSim final : public SpaceSim {
 public:
  explicit FbnetSpaceSim(std::uint64_t world_seed = 42);

  /// FNV-1a over (op index + 1) per layer.
  std::uint64_t noise_key(const Arch& arch) const override;

  /// Top-1 lost to post-training int8 quantization, with the qualitative
  /// structure of MnasNet's model: a small base drop that grows with
  /// expansion-6 layers (wider activation ranges quantize worse) and
  /// shrinks with skip connections (fewer quantized layers).
  double int8_accuracy_drop(const Arch& arch) const override;
  ModelIR lower(const Arch& arch, int resolution) const override;

 private:
  Terms terms(const Arch& arch) const override;
};

}  // namespace anb
