#include "anb/fbnet/fbnet_sim.hpp"

#include <algorithm>
#include <cmath>

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

constexpr double kAccFloor = 0.48;
constexpr double kAccRange = 0.46;
constexpr double kQualityScale = 9.0;
constexpr double kLatentWiggleSigma = 0.07;
constexpr int kNumMotifs = 48;
constexpr double kMotifWeightSigma = 0.14;

// log-MAC bounds of the FBNet space at 224 (all-skip-eligible minimal vs
// all-e6k5 maximal; verified in fbnet tests).
constexpr double kLogMacsMin = 17.5;
constexpr double kLogMacsMax = 20.5;

}  // namespace

FbnetTrainingSimulator::FbnetTrainingSimulator(std::uint64_t world_seed)
    : world_seed_(world_seed) {
  Rng rng(hash_combine(world_seed_, 0xFB307F1FULL));
  motifs_.reserve(kNumMotifs);
  for (int m = 0; m < kNumMotifs; ++m) {
    Motif motif;
    motif.arity = rng.bernoulli(1.0 / 3.0) ? 3 : 2;
    const auto picks = rng.sample_indices(
        kFbnetNumLayers, static_cast<std::size_t>(motif.arity));
    for (int a = 0; a < motif.arity; ++a) {
      const int layer = static_cast<int>(picks[static_cast<std::size_t>(a)]);
      motif.layer[static_cast<std::size_t>(a)] = layer;
      motif.op[static_cast<std::size_t>(a)] = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(FbnetSpace::num_ops(layer))));
    }
    motif.weight = rng.normal(0.0, kMotifWeightSigma);
    motifs_.push_back(motif);
  }
}

double FbnetTrainingSimulator::arch_noise_unit(const FbnetArchitecture& arch,
                                               std::uint64_t stream) const {
  Rng rng(hash_combine(hash_combine(world_seed_, arch.hash()), stream));
  return rng.normal();
}

double FbnetTrainingSimulator::latent_quality(
    const FbnetArchitecture& arch) const {
  FbnetSpace::validate(arch);
  double q = 0.0;
  int non_skip = 0;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const FbnetOp op = arch.ops[static_cast<std::size_t>(i)];
    q += layer_weight(i) * op_gain(op, i);
    non_skip += op != FbnetOp::kSkip;
  }
  // Too many skipped layers starve the network of depth.
  if (non_skip < 14) q -= 0.22 * (14 - non_skip);

  // Sparse (layer, op) motif interactions.
  for (const auto& motif : motifs_) {
    bool active = true;
    for (int a = 0; a < motif.arity && active; ++a) {
      active = static_cast<int>(
                   arch.ops[static_cast<std::size_t>(
                       motif.layer[static_cast<std::size_t>(a)])]) ==
               motif.op[static_cast<std::size_t>(a)];
    }
    if (active) q += motif.weight;
  }

  q += kLatentWiggleSigma * arch_noise_unit(arch, 1);
  return q;
}

ArchTraits FbnetTrainingSimulator::traits(const FbnetArchitecture& arch) const {
  // Every public query (train / expected_accuracy / training_cost_hours)
  // funnels through here; reject out-of-range op codes before they index
  // the motif tables.
  for (const FbnetOp op : arch.ops) {
    ANB_CHECK(static_cast<int>(op) >= 0 &&
                  static_cast<int>(op) < kFbnetNumOps,
              "FbnetTrainingSimulator: architecture has out-of-range op");
  }
  const double q = latent_quality(arch);
  ArchTraits traits;
  traits.reference_accuracy =
      kAccFloor + kAccRange * (1.0 - std::exp(-q / kQualityScale));

  const ModelIR ir = build_fbnet_ir(arch, 224);
  traits.macs_224 = static_cast<double>(ir.total_macs());
  const double log_macs = std::log(traits.macs_224);
  traits.size_factor = std::clamp(
      (log_macs - kLogMacsMin) / (kLogMacsMax - kLogMacsMin), 0.0, 1.0);

  int non_skip = 0;
  double mean_expansion = 0.0;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const FbnetOp op = arch.ops[static_cast<std::size_t>(i)];
    if (op == FbnetOp::kSkip) continue;
    ++non_skip;
    mean_expansion += fbnet_op_expansion(op);
  }
  mean_expansion /= std::max(1, non_skip);
  traits.depth_norm = std::clamp((non_skip - 6) / 16.0, 0.0, 1.0);
  traits.expand_norm = std::clamp((mean_expansion - 1.0) / 5.0, 0.0, 1.0);
  traits.res_wiggle = arch_noise_unit(arch, 2);
  traits.epoch_wiggle = arch_noise_unit(arch, 3);
  return traits;
}

double FbnetTrainingSimulator::reference_accuracy(
    const FbnetArchitecture& arch) const {
  return expected_accuracy(arch, reference_scheme());
}

double FbnetTrainingSimulator::expected_accuracy(
    const FbnetArchitecture& arch, const TrainingScheme& scheme) const {
  return scheme_expected_accuracy(traits(arch), scheme);
}

double FbnetTrainingSimulator::training_cost_hours(
    const FbnetArchitecture& arch, const TrainingScheme& scheme) const {
  return scheme_training_cost_hours(traits(arch), scheme);
}

TrainResult FbnetTrainingSimulator::train(const FbnetArchitecture& arch,
                                          const TrainingScheme& scheme,
                                          std::uint64_t run_seed) const {
  TrainResult result;
  const double mean_acc = expected_accuracy(arch, scheme);
  const double sigma = scheme_seed_noise_sigma(scheme);
  Rng rng(hash_combine(
      hash_combine(hash_combine(world_seed_, arch.hash()), scheme.hash()),
      run_seed));
  result.top1 = std::clamp(mean_acc + sigma * rng.normal(), 0.001, 0.999);
  result.gpu_hours = training_cost_hours(arch, scheme);
  return result;
}

double FbnetTrainingSimulator::int8_accuracy_drop(
    const FbnetArchitecture& arch) const {
  int wide = 0;
  int skips = 0;
  for (FbnetOp op : arch.ops) {
    if (op == FbnetOp::kE6K3 || op == FbnetOp::kE6K5) ++wide;
    if (op == FbnetOp::kSkip) ++skips;
  }
  return 0.002 + 0.0003 * wide - 0.0001 * skips;
}

}  // namespace anb
