#pragma once

#include <cstdint>
#include <memory>

#include "anb/ir/model_ir.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/trainsim/scheme.hpp"
#include "anb/trainsim/simulator.hpp"

namespace anb {

/// Space-generic facade over a training simulator plus IR lowering: the
/// one interface the collection/proxy-search/harness layers program
/// against, so the full benchmark-construction pipeline runs unmodified
/// over any registered search space. Implementations are thread-safe and
/// deterministic given their world seed; every method validates that the
/// genotype's space tag matches space().
class SpaceSim {
 public:
  virtual ~SpaceSim() = default;

  /// The search space this simulator scores.
  virtual const SearchSpace& space() const = 0;

  /// Simulate one training run under `scheme` with a given seed.
  virtual TrainResult train(const Arch& arch, const TrainingScheme& scheme,
                            std::uint64_t run_seed = 0) const = 0;

  /// Noise-free accuracy under the reference scheme `r`.
  virtual double reference_accuracy(const Arch& arch) const = 0;

  /// Noise-free accuracy under an arbitrary scheme (mean over seeds).
  virtual double expected_accuracy(const Arch& arch,
                                   const TrainingScheme& scheme) const = 0;

  /// Simulated GPU-hours of one run (deterministic, no noise).
  virtual double training_cost_hours(const Arch& arch,
                                     const TrainingScheme& scheme) const = 0;

  /// Top-1 drop from 8-bit post-training quantization (DPU deployment).
  virtual double int8_accuracy_drop(const Arch& arch) const = 0;

  /// Lower to the device-facing layer IR at the given input resolution —
  /// what the hwsim roofline model measures.
  virtual ModelIR lower(const Arch& arch, int resolution) const = 0;
};

/// Build the simulator stack for a space (owning). Also registers every
/// in-tree space (register_builtin_spaces), so the returned sim's space is
/// resolvable through the registry. Throws anb::Error for unknown ids.
std::unique_ptr<SpaceSim> make_space_sim(SpaceId id,
                                         std::uint64_t world_seed = 42);

}  // namespace anb
