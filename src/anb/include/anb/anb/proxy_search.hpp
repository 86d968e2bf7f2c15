#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "anb/anb/space_sim.hpp"
#include "anb/hpo/configspace.hpp"
#include "anb/trainsim/scheme.hpp"

namespace anb {

/// Configuration of the training-proxy search (paper Eq. 1 / §3.2):
/// maximize Kendall's τ between proxified and reference rankings of a small
/// stratified model grid, subject to an average per-model training-time
/// budget t_spec.
struct ProxySearchConfig {
  int n_models = 20;          ///< FLOPs/params-stratified evaluation grid
  double t_spec_hours = 3.0;  ///< budget on the *average* per-model cost
  std::uint64_t seed = 1;
  ProxyDomains domains;
  /// Optional early stop: abort once a scheme reaches this τ within budget
  /// (<= 0 disables; the paper stops "when the desired τ and t_p are
  /// achieved").
  double early_stop_tau = 0.0;
};

/// One evaluated proxy scheme.
struct ProxyTrial {
  TrainingScheme scheme;
  double tau = 0.0;         ///< rank correlation with the reference ranking
  double cost_hours = 0.0;  ///< average per-model training cost
  bool feasible = false;    ///< cost <= t_spec
};

/// Outcome of a proxy search.
struct ProxySearchOutcome {
  TrainingScheme best;             ///< p*
  double best_tau = 0.0;
  double best_cost_hours = 0.0;
  double reference_cost_hours = 0.0;  ///< average per-model cost under r
  double speedup = 0.0;               ///< t_r / t_p*
  std::vector<ProxyTrial> trials;
};

/// Driver for the training-proxy search over the six scheme
/// hyperparameters. Space-generic: the model grid, training runs, and IR
/// statistics all route through the SpaceSim.
class ProxySearch {
 public:
  explicit ProxySearch(const SpaceSim& sim);

  /// The paper's stratified model grid: a pool of random architectures
  /// bucketed by FLOPs, picking per bucket the model whose parameter count
  /// is most spread out — an even coverage of the complexity range.
  std::vector<Arch> stratified_models(int n, Rng& rng) const;

  /// Evaluate one candidate scheme against the reference ranking.
  ProxyTrial evaluate_scheme(const TrainingScheme& scheme,
                             const std::vector<Arch>& models,
                             std::span<const double> reference_acc,
                             double t_spec_hours) const;

  /// Exhaustive grid search over the valid scheme grid (the paper's choice
  /// of optimizer; trivially parallel, low-dimensional).
  ProxySearchOutcome run_grid(const ProxySearchConfig& config) const;

  /// The same search via an arbitrary hpo optimizer ("grid", "random",
  /// "smac") — the E9 ablation. `budget` caps objective evaluations for the
  /// non-exhaustive optimizers.
  ProxySearchOutcome run_with(const std::string& optimizer,
                              const ProxySearchConfig& config,
                              int budget) const;

  /// Scheme hyperparameters as a ConfigSpace (six categoricals).
  static ConfigSpace scheme_space(const ProxyDomains& domains);
  static TrainingScheme scheme_from_config(const Configuration& config);
  static bool scheme_config_valid(const Configuration& config);

 private:
  ProxySearchOutcome finalize(std::vector<ProxyTrial> trials,
                              const std::vector<Arch>& models) const;

  const SpaceSim* sim_;
};

}  // namespace anb
