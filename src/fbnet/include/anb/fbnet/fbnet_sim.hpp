#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "anb/fbnet/fbnet_space.hpp"
#include "anb/trainsim/curve.hpp"
#include "anb/trainsim/simulator.hpp"

namespace anb {

/// Training simulator for the FBNet-style generalizability space.
///
/// Shares the scheme-response model (learning curves, resolution/batch
/// effects, cost) with the MnasNet simulator via anb/trainsim/curve.hpp;
/// only the latent quality model is space-specific: per-layer op gains with
/// position-dependent weights, a depth/capacity balance over skip choices,
/// sparse (layer, op) motif interactions, and an idiosyncratic component.
/// This is what "generalizability study" means operationally — the paper's
/// proxy-search and surrogate pipeline runs unmodified against this space.
class FbnetTrainingSimulator {
 public:
  explicit FbnetTrainingSimulator(std::uint64_t world_seed = 42);

  TrainResult train(const FbnetArchitecture& arch,
                    const TrainingScheme& scheme,
                    std::uint64_t run_seed = 0) const;

  double reference_accuracy(const FbnetArchitecture& arch) const;
  double expected_accuracy(const FbnetArchitecture& arch,
                           const TrainingScheme& scheme) const;
  double training_cost_hours(const FbnetArchitecture& arch,
                             const TrainingScheme& scheme) const;
  /// Top-1 lost to post-training int8 quantization, with the qualitative
  /// structure of MnasNet's model: a small base drop that grows with
  /// expansion-6 layers (wider activation ranges quantize worse) and
  /// shrinks with skip connections (fewer quantized layers).
  double int8_accuracy_drop(const FbnetArchitecture& arch) const;

  double latent_quality(const FbnetArchitecture& arch) const;
  ArchTraits traits(const FbnetArchitecture& arch) const;

  std::uint64_t world_seed() const { return world_seed_; }

 private:
  double arch_noise_unit(const FbnetArchitecture& arch,
                         std::uint64_t stream) const;

  struct Motif {
    std::array<int, 3> layer{};
    std::array<int, 3> op{};
    int arity = 2;
    double weight = 0.0;
  };

  std::uint64_t world_seed_;
  std::vector<Motif> motifs_;
};

}  // namespace anb
