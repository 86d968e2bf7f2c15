#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "anb/nas/optimizer.hpp"

namespace anb {

/// Bi-objective oracle: architecture -> (objective1, objective2), both
/// already oriented so that larger is better (negate latencies).
using BiObjectiveOracle =
    std::function<std::pair<double, double>(const Arch&)>;

/// Batched bi-objective oracle: scores a whole generation in one call;
/// element i corresponds to archs[i]. Like BatchEvalOracle, it may not
/// draw from the optimizer's Rng.
using BiObjectiveBatchOracle = std::function<
    std::vector<std::pair<double, double>>(std::span<const Arch>)>;

/// NSGA-II configuration.
struct Nsga2Params {
  int population_size = 40;
  double crossover_prob = 0.9;  ///< uniform block-wise crossover
  double mutation_prob = 0.15;  ///< per-decision mutation rate in offspring
};

/// Result of an NSGA-II run: every evaluation plus the final front.
struct Nsga2Result {
  std::vector<Arch> archs;          ///< all evaluated, in order
  std::vector<double> obj1;
  std::vector<double> obj2;
  std::vector<std::size_t> front;   ///< indices of the final non-dominated set
};

/// Deb et al.'s NSGA-II over any registered space: fast non-dominated
/// sorting + crowding distance selection, binary tournaments on
/// (rank, crowding), uniform group-wise crossover (the space's
/// crossover_groups — per block on MnasNet) and per-decision mutation.
///
/// This is the natural *true* multi-objective alternative to the paper's
/// scalarized REINFORCE sweep (§4.2); the bench/e11 ablation compares the
/// hypervolume of the fronts both approaches find at equal budget.
class Nsga2 {
 public:
  explicit Nsga2(Nsga2Params params = {},
                 const SearchSpace& space = MnasSpace::instance());

  /// The space this optimizer searches.
  const SearchSpace& space() const { return *space_; }

  /// The search loop, evaluating exactly `n_evals` architectures
  /// (population seeding included). Selection only ever reads the *parent*
  /// population's ranks, so a whole generation of children is generated
  /// first and then scored in one oracle call.
  Nsga2Result run_batched(const BiObjectiveBatchOracle& oracle, int n_evals,
                          Rng& rng) const;

  /// run_batched over a scalar oracle, called once per architecture in
  /// evaluation order.
  Nsga2Result run(const BiObjectiveOracle& oracle, int n_evals, Rng& rng) const;

  /// Fast non-dominated sort: returns front index (0 = best) per point.
  static std::vector<int> non_dominated_ranks(std::span<const double> obj1,
                                              std::span<const double> obj2);

  /// Crowding distance within one front (infinity at the extremes).
  static std::vector<double> crowding_distance(
      std::span<const double> obj1, std::span<const double> obj2,
      std::span<const std::size_t> front);

 private:
  Nsga2Params params_;
  const SearchSpace* space_;
};

}  // namespace anb
