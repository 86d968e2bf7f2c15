#include "anb/trainsim/curve.hpp"

#include <algorithm>
#include <cmath>

namespace anb {

namespace {

// Scheme-response constants shared across search spaces (SpaceSim in
// space_sim.hpp describes the model). trainsim_test pins what they are
// calibrated for: tens of GPU-hours for a mid-size model under r,
// accuracy monotone in epochs and resolution, and tau > 0.85 between r
// and a sane proxy.
constexpr double kEpochExponent = 0.55;      // power-law convergence
constexpr double kEpochDeficitBase = 0.040;  // mean deficit coefficient
constexpr double kEpochDeficitDepth = 0.012;
constexpr double kEpochDeficitExpand = 0.010;
constexpr double kEpochDeficitWiggle = 0.0009;  // rank-perturbing component

constexpr double kResDropBase = 0.035;   // accuracy loss per log2 res shrink
constexpr double kResDropSize = 0.025;   // extra loss for large models
constexpr double kResDropWiggle = 0.0015;

constexpr double kBatchPenaltyPerLog2 = 0.004;  // above 512
constexpr double kProgressivePenaltyBase = 0.010;
constexpr double kProgressivePenaltySize = 0.010;

constexpr double kSeedNoiseFloor = 0.0010;
constexpr double kSeedNoiseEpochs = 0.004;  // scaled by 1/sqrt(e_t)

constexpr double kImagesPerEpoch = 1.281e6;
constexpr double kTrainFlopsFactor = 3.0 * 2.0;  // fwd+bwd, 2 flops per MAC
constexpr double kEffectiveFlops = 1.1e13;       // flop/s at batch 512

double batch_efficiency(int batch) {
  // Saturating utilization, normalized to 1.0 at batch 512.
  return (static_cast<double>(batch) / (batch + 256.0)) / (512.0 / 768.0);
}

}  // namespace

double scheme_expected_accuracy(const ArchTraits& traits,
                                const TrainingScheme& scheme) {
  scheme.validate();
  double acc = traits.reference_accuracy;

  // Final-resolution deficit: big models lose more when evaluated small.
  if (scheme.res_finish < 224) {
    const double shrink = std::log2(224.0 / scheme.res_finish);
    const double coef = kResDropBase + kResDropSize * traits.size_factor +
                        kResDropWiggle * traits.res_wiggle;
    acc -= std::max(0.0, coef) * shrink;
  }

  // Under-training deficit: power-law in the epoch ratio, with architecture-
  // dependent convergence speed (deep / wide models converge slower).
  const int e_ref = reference_scheme().total_epochs;
  if (scheme.total_epochs < e_ref) {
    const double k = kEpochDeficitBase +
                     kEpochDeficitDepth * traits.depth_norm +
                     kEpochDeficitExpand * traits.expand_norm +
                     kEpochDeficitWiggle * traits.epoch_wiggle;
    const double ratio = static_cast<double>(e_ref) / scheme.total_epochs;
    acc -= std::max(0.0, k) * (std::pow(ratio, kEpochExponent) - 1.0);
  }

  // Large-batch generalization penalty (fixed epoch budget).
  if (scheme.batch_size > 512) {
    acc -= kBatchPenaltyPerLog2 * std::log2(scheme.batch_size / 512.0);
  }

  // Progressive resizing: epochs spent below the final resolution cost a
  // little accuracy (less than training there entirely, much less time).
  double mean_res = 0.0;
  for (int e = 0; e < scheme.total_epochs; ++e)
    mean_res += scheme.resolution_at_epoch(e);
  mean_res /= scheme.total_epochs;
  const double res_ratio = mean_res / scheme.res_finish;
  acc -= (kProgressivePenaltyBase +
          kProgressivePenaltySize * traits.size_factor) *
         (1.0 - res_ratio);

  return std::clamp(acc, 0.01, 0.99);
}

double scheme_seed_noise_sigma(const TrainingScheme& scheme) {
  scheme.validate();
  return kSeedNoiseFloor + kSeedNoiseEpochs / std::sqrt(scheme.total_epochs);
}

double scheme_training_cost_hours(const ArchTraits& traits,
                                  const TrainingScheme& scheme) {
  scheme.validate();
  double flops = 0.0;
  for (int e = 0; e < scheme.total_epochs; ++e) {
    const double res = scheme.resolution_at_epoch(e);
    // MACs scale quadratically with input resolution on conv skeletons.
    const double macs = traits.macs_224 * (res / 224.0) * (res / 224.0);
    flops += kImagesPerEpoch * kTrainFlopsFactor * macs;
  }
  const double seconds =
      flops / (kEffectiveFlops * batch_efficiency(scheme.batch_size));
  return seconds / 3600.0;
}

}  // namespace anb
