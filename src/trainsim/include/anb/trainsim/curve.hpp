#pragma once

#include "anb/trainsim/scheme.hpp"

namespace anb {

/// Architecture-level traits that determine how a model responds to a
/// training scheme. This decouples the *scheme response* (learning curves,
/// resolution/batch effects, cost model — shared by every search space)
/// from the *latent quality model* (space-specific): SpaceSim::traits
/// lowers every space's genotypes to them.
struct ArchTraits {
  /// Top-1 accuracy the model reaches under the reference scheme.
  double reference_accuracy = 0.7;
  /// Normalized model size in [0, 1] (log-MAC position within the space).
  double size_factor = 0.5;
  /// Normalized depth in [0, 1] (layers relative to the space's range).
  double depth_norm = 0.5;
  /// Normalized width/expansion in [0, 1].
  double expand_norm = 0.5;
  /// Idiosyncratic unit-normal draws perturbing the scheme response
  /// (resolution sensitivity / convergence speed); rank perturbation.
  double res_wiggle = 0.0;
  double epoch_wiggle = 0.0;
  /// Inference MACs at 224x224 (drives the training-cost model).
  double macs_224 = 3e8;
};

/// Expected accuracy of a model with `traits` trained under `scheme`:
/// reference accuracy minus resolution / under-training / batch /
/// progressive-resizing deficits (see SpaceSim in anb/trainsim/space_sim.hpp).
double scheme_expected_accuracy(const ArchTraits& traits,
                                const TrainingScheme& scheme);

/// Per-seed evaluation noise (stddev) under `scheme`; shrinks with epochs.
double scheme_seed_noise_sigma(const TrainingScheme& scheme);

/// Simulated single-GPU training cost in hours: images x FLOPs over an
/// effective-throughput model with batch-dependent utilization.
double scheme_training_cost_hours(const ArchTraits& traits,
                                  const TrainingScheme& scheme);

}  // namespace anb
