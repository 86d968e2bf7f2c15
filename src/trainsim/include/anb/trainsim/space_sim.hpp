#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "anb/ir/model_ir.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/trainsim/curve.hpp"
#include "anb/trainsim/scheme.hpp"

namespace anb {

/// Result of one simulated training run.
struct TrainResult {
  double top1 = 0.0;       ///< ImageNet top-1 validation accuracy in [0, 1]
  double gpu_hours = 0.0;  ///< simulated single-GPU wall-clock training cost
};

/// Analytic substitute for training one search space's models on
/// ImageNet2012, plus their lowering to the device-facing layer IR: the one
/// interface the collection/proxy-search/harness layers program against, so
/// the full benchmark-construction pipeline runs unmodified over any
/// registered search space.
///
/// The real paper trains each architecture on a GPU cluster; that is the
/// unobtainable input here, so this simulator reproduces the *statistical
/// structure* that the paper's pipeline depends on:
///
///  1. Each architecture has a deterministic latent quality: space-specific
///     structural terms (stage/position-weighted op contributions with
///     interactions), sparse motif conjunctions over the decisions, and a
///     hash-seeded idiosyncratic component that no simple closed form can
///     recover — the reason surrogates are imperfect.
///  2. Accuracy under a scheme follows a saturating power-law learning curve
///     (anb/trainsim/curve.hpp): fewer epochs / lower resolution / larger
///     batch cost accuracy, with architecture-dependent sensitivity. Cheap
///     schemes therefore *perturb rankings*, which is exactly the trade-off
///     the proxy search (Eq. 1) navigates.
///  3. Per-seed evaluation noise shrinks with training length.
///  4. Training time follows an images × FLOPs / effective-throughput model
///     with batch-dependent device efficiency, so proxy speedups (the
///     paper's 5.6×) are measurable as simulated GPU-hours.
///
/// All stochastic components are derived from (world_seed, arch, scheme,
/// run seed), so any run is reproducible and independent of call order.
/// This class holds the space-generic half; each space supplies its
/// structural terms, int8 model and lowering (MnasSpaceSim below,
/// FbnetSpaceSim in anb/fbnet/fbnet_sim.hpp). Instances are thread-safe;
/// every method throws anb::Error on a genotype that is not a member of
/// space().
class SpaceSim {
 public:
  virtual ~SpaceSim() = default;
  SpaceSim(const SpaceSim&) = delete;
  SpaceSim& operator=(const SpaceSim&) = delete;

  /// The search space this simulator scores.
  const SearchSpace& space() const { return space_; }

  /// Simulate one training run under `scheme` with a given seed.
  TrainResult train(const Arch& arch, const TrainingScheme& scheme,
                    std::uint64_t run_seed = 0) const;

  /// Noise-free accuracy under the reference scheme `r` — the "true"
  /// quantity the paper's rankings are judged against.
  double reference_accuracy(const Arch& arch) const;

  /// Noise-free accuracy under an arbitrary scheme (mean over seeds).
  double expected_accuracy(const Arch& arch,
                           const TrainingScheme& scheme) const;

  /// Simulated GPU-hours of one run (deterministic, no noise).
  double training_cost_hours(const Arch& arch,
                             const TrainingScheme& scheme) const;

  /// Deterministic latent quality score (unbounded, higher is better).
  double latent_quality(const Arch& arch) const;

  /// Lower an architecture to the space-agnostic scheme-response traits
  /// consumed by the shared learning-curve model.
  ArchTraits traits(const Arch& arch) const;

  /// Key of every noise stream of `arch`: an FNV-1a over its option
  /// values, which callers outside the simulator (the zoo measurements of
  /// true_evaluation) use to seed their own noise. Throws anb::Error unless
  /// `arch` is a member of space().
  virtual std::uint64_t noise_key(const Arch& arch) const = 0;

  /// Top-1 drop from 8-bit post-training quantization — the paper
  /// quantizes all models for DPU deployment (§3.3.2).
  virtual double int8_accuracy_drop(const Arch& arch) const = 0;

  /// Lower to the device-facing layer IR at the given input resolution —
  /// what the hwsim roofline model measures.
  virtual ModelIR lower(const Arch& arch, int resolution) const = 0;

 protected:
  /// A space's constants for the shared half.
  struct Calibration {
    std::uint64_t motif_salt = 0;  ///< seeds the motif table with the world
    int num_motifs = 0;
    double motif_weight_sigma = 0.0;  ///< q units
    double acc_floor = 0.0;  ///< accuracy of the weakest archs under r
    double acc_range = 0.0;  ///< saturating headroom above the floor
    /// log-MAC bounds of the space at 224 (minimal / maximal archs).
    double log_macs_min = 0.0;
    double log_macs_max = 0.0;
  };

  /// What a space derives from one validated genotype.
  struct Terms {
    double quality = 0.0;  ///< structural latent quality (no motifs/noise)
    double macs_224 = 0.0;
    double depth_norm = 0.0;   ///< in [0, 1]
    double expand_norm = 0.0;  ///< in [0, 1]
  };

  SpaceSim(const SearchSpace& space, std::uint64_t world_seed,
           const Calibration& calibration);

  /// The space's half: validates `arch` (anb::Error unless it is a member
  /// of space()) and computes its terms.
  virtual Terms terms(const Arch& arch) const = 0;

  /// Unit-normal draw of one noise stream of the arch keyed `key`.
  double noise_unit(std::uint64_t key, std::uint64_t stream) const;

  /// log-MAC position of a model within the space, clamped to [0, 1].
  double size_factor(double macs_224) const;

 private:
  /// A sparse conjunction effect: IF decisions take specific values THEN
  /// quality shifts by `weight`. Architecture-quality landscapes have such
  /// motif structure (specific op-combination effects); it is what gives
  /// tree ensembles their edge over kernel methods on this task (Table 1).
  struct Motif {
    std::array<int, 3> decision{};
    std::array<int, 3> option{};
    int arity = 2;
    double weight = 0.0;
  };

  double latent_quality(const Arch& arch, const Terms& terms) const;
  ArchTraits traits(const Arch& arch, const Terms& terms) const;

  const SearchSpace& space_;
  std::uint64_t world_seed_;
  Calibration calibration_;
  std::vector<Motif> motifs_;
};

/// The MnasNet space's simulator (paper §3.1): stage-weighted
/// expansion/depth/kernel/SE contributions with interactions.
class MnasSpaceSim final : public SpaceSim {
 public:
  explicit MnasSpaceSim(std::uint64_t world_seed = 42);

  /// FNV-1a over (expansion, kernel, layers, se ? 2 : 1) per block.
  std::uint64_t noise_key(const Arch& arch) const override;
  /// Small models and SE-heavy models (sigmoid gates with wide activation
  /// ranges) lose more; typical drops are a fraction of a percent.
  double int8_accuracy_drop(const Arch& arch) const override;
  ModelIR lower(const Arch& arch, int resolution) const override;

 private:
  Terms terms(const Arch& arch) const override;
};

}  // namespace anb
