#include "anb/nas/reinforce.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "anb/util/error.hpp"

namespace anb {

Reinforce::Reinforce(ReinforceParams params, const SearchSpace& space)
    : NasOptimizer(space), params_(params) {
  ANB_CHECK(params_.learning_rate > 0.0, "Reinforce: learning_rate must be > 0");
  ANB_CHECK(params_.baseline_decay >= 0.0 && params_.baseline_decay < 1.0,
            "Reinforce: baseline_decay must be in [0, 1)");
  ANB_CHECK(params_.entropy_coef >= 0.0,
            "Reinforce: entropy_coef must be >= 0");
}

SearchTrajectory Reinforce::run_batched(const BatchEvalOracle& oracle,
                                        int n_evals, Rng& rng) {
  ANB_CHECK(static_cast<bool>(oracle), "Reinforce: missing oracle");
  ANB_CHECK(n_evals >= 1, "Reinforce: n_evals must be >= 1");

  const auto& sizes = space().decision_sizes();
  const auto num_decisions = sizes.size();
  // Per-decision logits, initialized uniform.
  std::vector<std::vector<double>> logits(num_decisions);
  for (std::size_t d = 0; d < num_decisions; ++d)
    logits[d].assign(static_cast<std::size_t>(sizes[d]), 0.0);

  // Writes softmax(l) into p, which already has l's size.
  auto softmax = [](const std::vector<double>& l, std::vector<double>& p) {
    const double mx = *std::max_element(l.begin(), l.end());
    double z = 0.0;
    for (std::size_t k = 0; k < l.size(); ++k) {
      p[k] = std::exp(l[k] - mx);
      z += p[k];
    }
    for (double& v : p) v /= z;
  };

  SearchTrajectory traj;
  double baseline = 0.0;
  bool baseline_set = false;
  // Scale-free updates: advantages are normalized by a running mean absolute
  // advantage, so the same learning rate works for rewards in [0,1] accuracy
  // units and in raw img/s reward units.
  double adv_scale = 0.0;

  std::vector<int> decisions(num_decisions);
  // The policy's probabilities, rewritten in place every eval.
  std::vector<std::vector<double>> probs = logits;
  for (int t = 0; t < n_evals; ++t) {
    // Sample an architecture from the factorized policy.
    for (std::size_t d = 0; d < num_decisions; ++d) {
      softmax(logits[d], probs[d]);
      decisions[d] = static_cast<int>(rng.weighted_index(probs[d]));
    }
    const Arch arch = space().from_decisions(decisions);
    const std::vector<double> rewards = oracle({&arch, 1});
    ANB_CHECK(rewards.size() == 1,
              "Reinforce: batched oracle returned wrong size");
    const double reward = rewards[0];
    traj.add(arch, reward);

    if (!baseline_set) {
      baseline = reward;
      baseline_set = true;
    } else {
      baseline = params_.baseline_decay * baseline +
                 (1.0 - params_.baseline_decay) * reward;
    }
    double advantage = reward - baseline;
    adv_scale = adv_scale == 0.0
                    ? std::abs(advantage)
                    : 0.95 * adv_scale + 0.05 * std::abs(advantage);
    if (adv_scale > 1e-12) advantage /= adv_scale;
    advantage = std::clamp(advantage, -3.0, 3.0);

    // Score-function update with entropy bonus:
    //   dlogπ/dθ_dk = 1[k = chosen] − p_k
    //   dH/dθ_dk    = −p_k (log p_k + H_d)
    for (std::size_t d = 0; d < num_decisions; ++d) {
      const auto& p = probs[d];
      double entropy = 0.0;
      for (double pk : p)
        if (pk > 0) entropy -= pk * std::log(pk);
      for (std::size_t k = 0; k < p.size(); ++k) {
        const double indicator =
            static_cast<int>(k) == decisions[d] ? 1.0 : 0.0;
        double grad = advantage * (indicator - p[k]);
        if (p[k] > 0) {
          grad += params_.entropy_coef * (-p[k] * (std::log(p[k]) + entropy));
        }
        logits[d][k] += params_.learning_rate * grad;
      }
    }
  }
  last_policy_ = std::move(probs);
  return traj;
}

double mnasnet_reward(double accuracy, double performance, double target,
                      double weight) {
  ANB_CHECK(performance > 0.0 && target > 0.0,
            "mnasnet_reward: performance and target must be positive");
  return accuracy * std::pow(performance / target, weight);
}

}  // namespace anb
