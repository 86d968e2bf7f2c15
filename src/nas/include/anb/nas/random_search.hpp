#pragma once

#include <string>

#include "anb/nas/optimizer.hpp"

namespace anb {

/// Uniform random architecture sampling (Li & Talwalkar's reproducibility
/// baseline [10]). On the MnasNet space the paper observes it stagnating
/// early relative to RE/REINFORCE (Fig. 5) — high variance of model quality
/// makes exploration without exploitation inefficient.
class RandomSearchNas final : public NasOptimizer {
 public:
  using NasOptimizer::NasOptimizer;

  std::string name() const override { return "RS"; }
  /// Samples never depend on evaluations, so the whole run is one batched
  /// oracle call.
  SearchTrajectory run_batched(const BatchEvalOracle& oracle, int n_evals,
                               Rng& rng) override;
};

}  // namespace anb
