#pragma once

#include <string>

#include "anb/nas/optimizer.hpp"

namespace anb {

/// Regularized (aging) evolution, Real et al. [13]: maintain a FIFO
/// population; each step tournament-samples `sample_size` members, mutates
/// the fittest by one decision, evaluates the child, and retires the oldest
/// member. Aging regularizes toward architectures that stay good when
/// re-discovered rather than one-off lucky evaluations.
struct RegularizedEvolutionParams {
  int population_size = 50;
  int sample_size = 10;  ///< tournament size
};

class RegularizedEvolution final : public NasOptimizer {
 public:
  explicit RegularizedEvolution(RegularizedEvolutionParams params = {},
                                const SearchSpace& space = MnasSpace::instance());

  std::string name() const override { return "RE"; }
  /// The seed population is evaluated in one batched call (its samples
  /// never depend on each other's scores); the evolution loop is
  /// inherently sequential and proceeds in batches of one.
  SearchTrajectory run_batched(const BatchEvalOracle& oracle, int n_evals,
                               Rng& rng) override;

 private:
  RegularizedEvolutionParams params_;
};

}  // namespace anb
