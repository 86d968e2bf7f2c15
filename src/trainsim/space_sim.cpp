#include "anb/trainsim/space_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "anb/util/error.hpp"
#include "anb/util/rng.hpp"

namespace anb {

namespace {

// ---- Shared latent-quality constants --------------------------------------
constexpr double kQualityScale = 9.0;
constexpr double kLatentWiggleSigma = 0.07;  // idiosyncratic, in q units

// Noise streams of one architecture.
constexpr std::uint64_t kWiggleStream = 1;
constexpr std::uint64_t kResWiggleStream = 2;
constexpr std::uint64_t kEpochWiggleStream = 3;
constexpr std::uint64_t kInt8Stream = 4;

}  // namespace

SpaceSim::SpaceSim(const SearchSpace& space, std::uint64_t world_seed,
                   const Calibration& calibration)
    : space_(space), world_seed_(world_seed), calibration_(calibration) {
  // Deterministic motif table: sparse conjunctions over the decisions.
  Rng rng(hash_combine(world_seed_, calibration_.motif_salt));
  const auto& sizes = space_.decision_sizes();
  motifs_.reserve(static_cast<std::size_t>(calibration_.num_motifs));
  for (int m = 0; m < calibration_.num_motifs; ++m) {
    Motif motif;
    motif.arity = rng.bernoulli(1.0 / 3.0) ? 3 : 2;
    const auto picks = rng.sample_indices(sizes.size(),
                                          static_cast<std::size_t>(motif.arity));
    for (int a = 0; a < motif.arity; ++a) {
      motif.decision[static_cast<std::size_t>(a)] = static_cast<int>(picks[static_cast<std::size_t>(a)]);
      motif.option[static_cast<std::size_t>(a)] = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(sizes[picks[static_cast<std::size_t>(a)]])));
    }
    motif.weight = rng.normal(0.0, calibration_.motif_weight_sigma);
    motifs_.push_back(motif);
  }
}

double SpaceSim::noise_unit(std::uint64_t key, std::uint64_t stream) const {
  Rng rng(hash_combine(hash_combine(world_seed_, key), stream));
  return rng.normal();
}

double SpaceSim::size_factor(double macs_224) const {
  return std::clamp((std::log(macs_224) - calibration_.log_macs_min) /
                        (calibration_.log_macs_max - calibration_.log_macs_min),
                    0.0, 1.0);
}

double SpaceSim::latent_quality(const Arch& arch, const Terms& terms) const {
  double q = terms.quality;
  // Motif effects: sparse conjunctions of specific option choices. These
  // carry real (learnable) signal with discrete interaction structure.
  for (const auto& motif : motifs_) {
    bool active = true;
    for (int a = 0; a < motif.arity && active; ++a) {
      active = arch.d[static_cast<std::size_t>(
                   motif.decision[static_cast<std::size_t>(a)])] ==
               motif.option[static_cast<std::size_t>(a)];
    }
    if (active) q += motif.weight;
  }

  // Idiosyncratic component: the part of model quality no simple analytic
  // form captures; this is what bounds surrogate fidelity below 1.0.
  q += kLatentWiggleSigma * noise_unit(noise_key(arch), kWiggleStream);
  return q;
}

ArchTraits SpaceSim::traits(const Arch& arch, const Terms& terms) const {
  const double q = latent_quality(arch, terms);
  ArchTraits traits;
  traits.reference_accuracy =
      calibration_.acc_floor +
      calibration_.acc_range * (1.0 - std::exp(-q / kQualityScale));
  traits.macs_224 = terms.macs_224;
  traits.size_factor = size_factor(terms.macs_224);
  traits.depth_norm = terms.depth_norm;
  traits.expand_norm = terms.expand_norm;
  const std::uint64_t key = noise_key(arch);
  traits.res_wiggle = noise_unit(key, kResWiggleStream);
  traits.epoch_wiggle = noise_unit(key, kEpochWiggleStream);
  return traits;
}

double SpaceSim::latent_quality(const Arch& arch) const {
  return latent_quality(arch, terms(arch));
}

ArchTraits SpaceSim::traits(const Arch& arch) const {
  return traits(arch, terms(arch));
}

double SpaceSim::reference_accuracy(const Arch& arch) const {
  return expected_accuracy(arch, reference_scheme());
}

double SpaceSim::expected_accuracy(const Arch& arch,
                                   const TrainingScheme& scheme) const {
  return scheme_expected_accuracy(traits(arch), scheme);
}

double SpaceSim::training_cost_hours(const Arch& arch,
                                     const TrainingScheme& scheme) const {
  return scheme_training_cost_hours(traits(arch), scheme);
}

TrainResult SpaceSim::train(const Arch& arch, const TrainingScheme& scheme,
                            std::uint64_t run_seed) const {
  const ArchTraits arch_traits = traits(arch);
  TrainResult result;
  const double mean_acc = scheme_expected_accuracy(arch_traits, scheme);
  const double sigma = scheme_seed_noise_sigma(scheme);
  Rng rng(hash_combine(
      hash_combine(hash_combine(world_seed_, noise_key(arch)), scheme.hash()),
      run_seed));
  result.top1 = std::clamp(mean_acc + sigma * rng.normal(), 0.001, 0.999);
  result.gpu_hours = scheme_training_cost_hours(arch_traits, scheme);
  return result;
}

// ---- MnasNet ----------------------------------------------------------------

namespace {

// Stage importance: later stages carry more semantic capacity.
constexpr std::array<double, kNumBlocks> kStageWeight{0.35, 0.50, 0.70, 1.00,
                                                      1.10, 1.30, 0.90};
// SE usefulness grows towards late stages (EfficientNet ablations).
constexpr std::array<double, kNumBlocks> kSeStageWeight{0.30, 0.50, 0.80, 1.00,
                                                        1.20, 1.20, 1.00};

double expansion_gain(int e) {
  switch (e) {
    case 1: return 0.0;
    case 4: return 0.55;
    case 6: return 0.75;
    default: ANB_CHECK(false, "expansion_gain: invalid expansion"); return 0;
  }
}

double depth_gain(int layers) {
  switch (layers) {
    case 1: return 0.0;
    case 2: return 0.30;
    case 3: return 0.45;
    default: ANB_CHECK(false, "depth_gain: invalid layers"); return 0;
  }
}

// Kernel-5 benefit by stage: helps most at mid-network receptive-field
// growth, slightly hurts in the earliest high-resolution stages.
constexpr std::array<double, kNumBlocks> kKernel5Gain{-0.02, 0.02, 0.10, 0.10,
                                                      0.08,  0.04, 0.02};

}  // namespace

MnasSpaceSim::MnasSpaceSim(std::uint64_t world_seed)
    : SpaceSim(MnasSpace::instance(), world_seed,
               {.motif_salt = 0x307F1F5ULL,
                .num_motifs = 40,
                .motif_weight_sigma = 0.16,
                .acc_floor = 0.50,
                .acc_range = 0.50,
                .log_macs_min = 17.76,    // ~5.2e7 (all-minimal architecture)
                .log_macs_max = 20.59}) {}  // ~8.8e8 (all-maximal architecture)

std::uint64_t MnasSpaceSim::noise_key(const Arch& arch) const {
  space().validate(arch);
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64 offset basis
  const auto mix = [&h](int value) {
    h ^= static_cast<std::uint64_t>(value);
    h *= 0x100000001B3ULL;  // FNV-1a 64 prime
  };
  for (int b = 0; b < kNumBlocks; ++b) {
    mix(MnasSpace::expansion(arch, b));
    mix(MnasSpace::kernel(arch, b));
    mix(MnasSpace::layers(arch, b));
    mix(MnasSpace::se(arch, b) ? 2 : 1);
  }
  return h;
}

SpaceSim::Terms MnasSpaceSim::terms(const Arch& arch) const {
  space().validate(arch);
  Terms terms;
  double q = 0.0;
  int total_depth = 0;
  double mean_expansion = 0.0;
  int mid_k5 = 0;
  for (int s = 0; s < kNumBlocks; ++s) {
    const int expansion = MnasSpace::expansion(arch, s);
    const bool k5 = MnasSpace::kernel(arch, s) == 5;
    const int layers = MnasSpace::layers(arch, s);
    const double fe = expansion_gain(expansion);
    const double fl = depth_gain(layers);
    double contrib = fe + fl;
    // Depth and width reinforce each other; depth with e=1 is mostly wasted.
    contrib += 0.12 * (fl / 0.45) * (fe / 0.75);
    if (k5) contrib += kKernel5Gain[static_cast<std::size_t>(s)];
    if (MnasSpace::se(arch, s)) {
      // SE helps more on wide blocks (it gates more channels usefully).
      contrib += 0.14 * kSeStageWeight[static_cast<std::size_t>(s)] *
                 (0.7 + 0.3 * fe / 0.75);
    }
    q += kStageWeight[static_cast<std::size_t>(s)] * contrib;
    total_depth += layers;
    mean_expansion += expansion;
    if (k5 && s >= 2 && s <= 5) ++mid_k5;
  }

  // Global shape terms: very shallow networks underfit ImageNet...
  if (total_depth < 9) q -= 0.05 * (9 - total_depth);
  // ...and some mid-network 5x5 coverage is needed for receptive field.
  if (mid_k5 >= 2) q += 0.08;
  terms.quality = q;

  terms.macs_224 = static_cast<double>(build_ir(arch, 224).total_macs());
  mean_expansion /= kNumBlocks;
  terms.depth_norm =
      (total_depth - kNumBlocks) / static_cast<double>(2 * kNumBlocks);
  terms.expand_norm = (mean_expansion - 1.0) / 5.0;
  return terms;
}

double MnasSpaceSim::int8_accuracy_drop(const Arch& arch) const {
  const double size =
      size_factor(static_cast<double>(build_ir(arch, 224).total_macs()));
  double se_fraction = 0.0;
  for (int b = 0; b < kNumBlocks; ++b)
    se_fraction += MnasSpace::se(arch, b) ? 1.0 : 0.0;
  se_fraction /= kNumBlocks;
  // Base ~0.2%, up to ~0.9% for small SE-heavy models; small seeded wiggle.
  const double drop =
      0.002 + 0.003 * se_fraction + 0.003 * (1.0 - size) +
      0.0005 * std::abs(noise_unit(noise_key(arch), kInt8Stream));
  return std::clamp(drop, 0.0, 0.02);
}

ModelIR MnasSpaceSim::lower(const Arch& arch, int resolution) const {
  return build_ir(arch, resolution);
}

}  // namespace anb
