#pragma once

#include <string>
#include <vector>

#include "anb/nas/optimizer.hpp"

namespace anb {

/// REINFORCE policy-gradient search (Zoph & Le [19]) over a factorized
/// decision space: an independent categorical softmax per decision (28
/// heads on MnasNet, 22 on FBNet — the heads come from the search space's
/// decision_sizes()). Updates use the
/// score-function estimator with an exponential-moving-average baseline and
/// an entropy bonus that decays exploration over time.
struct ReinforceParams {
  double learning_rate = 0.12;
  double baseline_decay = 0.9;   ///< EMA factor for the reward baseline
  double entropy_coef = 0.02;    ///< exploration bonus on policy entropy
};

class Reinforce final : public NasOptimizer {
 public:
  explicit Reinforce(ReinforceParams params = {},
                     const SearchSpace& space = MnasSpace::instance());

  std::string name() const override { return "REINFORCE"; }
  /// Each sample depends on the policy updated by the previous score, so
  /// the search proceeds in batches of one.
  SearchTrajectory run_batched(const BatchEvalOracle& oracle, int n_evals,
                               Rng& rng) override;

  /// Decision-probability snapshot after the last run (for inspection);
  /// probs[d][k] is the policy probability of option k at decision d.
  const std::vector<std::vector<double>>& last_policy() const {
    return last_policy_;
  }

 private:
  ReinforceParams params_;
  std::vector<std::vector<double>> last_policy_;
};

/// The MnasNet-style scalarization used for bi-objective search (§4.2):
/// reward = accuracy × (perf / target)^w. With perf = throughput (higher
/// better) use w > 0; sweeping `target` traces out the accuracy-performance
/// Pareto front. For latency (lower better) pass w < 0.
double mnasnet_reward(double accuracy, double performance, double target,
                      double weight);

}  // namespace anb
