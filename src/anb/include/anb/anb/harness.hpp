#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/anb/space_sim.hpp"
#include "anb/nas/optimizer.hpp"

namespace anb {

/// ---- Fig. 5: uni-objective trajectory comparison ------------------------

/// True-vs-simulated incumbent curves for one optimizer. Simulated
/// (surrogate-backed) runs are averaged over several seeds; the true run is
/// performed once, as in the paper (§4.1: true runs are too expensive to
/// repeat).
struct TrajectoryComparison {
  std::string optimizer;
  std::vector<double> true_incumbent;
  std::vector<std::vector<double>> sim_incumbents;
  std::vector<double> sim_mean_incumbent;
};

struct TrajectoryConfig {
  int n_evals = 300;
  int n_sim_seeds = 5;
  std::uint64_t seed = 3;
};

/// Run RS / RE / REINFORCE against (a) the space's training simulator with
/// scheme `p_star` ("true") and (b) the benchmark's accuracy surrogate
/// ("simulated"). Space-generic: the optimizers search sim.space(), which
/// must match the benchmark's space.
std::vector<TrajectoryComparison> compare_trajectories(
    const AccelNASBench& bench, const SpaceSim& sim,
    const TrainingScheme& p_star, const TrajectoryConfig& config);

/// ---- Fig. 4: bi-objective REINFORCE search -------------------------------

struct ParetoSearchConfig {
  MetricKey key{DeviceKind::kZcu102, PerfMetric::kThroughput};
  int n_targets = 7;             ///< reward-target sweep granularity
  int n_evals_per_target = 250;  ///< REINFORCE budget per target
  double weight = 0.07;          ///< MnasNet reward exponent |w|
  int n_picks = 3;               ///< "hand-picked" pareto models (Fig. 4 stars)
  std::uint64_t seed = 5;
};

/// All evaluations of a bi-objective search plus the resulting front.
struct ParetoOutcome {
  std::vector<Arch> archs;
  std::vector<double> accuracy;   ///< surrogate accuracy per arch
  std::vector<double> perf;       ///< surrogate throughput/latency per arch
  std::vector<std::size_t> front; ///< indices of the non-dominated subset
  std::vector<std::size_t> picks; ///< spread selection along the front
};

/// REINFORCE with the scalarized MnasNet reward acc·(perf/target)^±w,
/// sweeping `n_targets` targets across the device's performance range to
/// trace the front (zero-cost: only surrogate queries). Runs over the
/// benchmark's own search space.
ParetoOutcome pareto_search(const AccelNASBench& bench,
                            const ParetoSearchConfig& config);

/// ---- Fig. 6: true re-evaluation vs known baselines -----------------------

struct TrueEvalRow {
  std::string name;       ///< e.g. "anb-zcu102-a" or "effnet-b0"
  double accuracy = 0.0;  ///< reference-scheme top-1
  double perf = 0.0;      ///< measured device throughput/latency
  bool is_ours = false;   ///< searched by us vs existing baseline
};

/// Train each picked architecture with the reference scheme `r` and measure
/// it on the device. On the MnasNet space the reference-zoo baselines
/// (EfficientNet-B0, MobileNetV3, EdgeTPU-S, MnasNet-A1) are appended for
/// comparison; other spaces report only the searched models.
std::vector<TrueEvalRow> true_evaluation(const ParetoOutcome& outcome,
                                         const SpaceSim& sim, MetricKey key,
                                         const std::string& tag,
                                         std::uint64_t seed = 17);

}  // namespace anb
