#pragma once

#include <functional>
#include <span>
#include <vector>

#include "anb/nas/optimizer.hpp"

namespace anb {

/// Budget-aware evaluation oracle: train `arch` for `epochs` and return
/// {observed accuracy, cost in GPU-hours}. Successive halving probes many
/// architectures cheaply and spends real budget only on survivors.
struct BudgetedEval {
  double accuracy = 0.0;
  double cost_hours = 0.0;
};
using BudgetedOracle = std::function<BudgetedEval(const Arch&, int epochs)>;

/// Batched variant: evaluate one round's whole surviving population at the
/// same epoch budget in a single call; element i corresponds to archs[i].
/// Like BatchEvalOracle, it may not draw from the optimizer's Rng.
using BudgetedBatchOracle = std::function<std::vector<BudgetedEval>(
    std::span<const Arch>, int epochs)>;

/// Successive halving (the classic *training-proxy* method the paper cites
/// in §3.2: "successive halving and hyperband ... use the model's
/// early-stage performance as a proxy for true performance").
///
/// Round 0 trains `initial_population` random architectures for `min_epochs`
/// each; every subsequent round keeps the top 1/eta fraction and multiplies
/// the per-model epoch budget by eta, until `max_epochs` is reached or one
/// survivor remains.
struct SuccessiveHalvingParams {
  int initial_population = 27;
  int eta = 3;
  int min_epochs = 5;
  int max_epochs = 45;
};

struct SuccessiveHalvingResult {
  Arch best;
  double best_accuracy = 0.0;   ///< at the final (largest) budget
  double total_cost_hours = 0.0;
  int rounds = 0;
  /// All (arch, accuracy, epochs) evaluations in order.
  struct Eval {
    Arch arch;
    double accuracy;
    int epochs;
  };
  std::vector<Eval> evals;
};

class SuccessiveHalving {
 public:
  explicit SuccessiveHalving(SuccessiveHalvingParams params = {},
                             const SearchSpace& space = MnasSpace::instance());

  /// The space this optimizer searches.
  const SearchSpace& space() const { return *space_; }

  /// The search loop. Each round's survivors are known before any of them
  /// is scored, so a round is one batched oracle call.
  SuccessiveHalvingResult run_batched(const BudgetedBatchOracle& oracle,
                                      Rng& rng) const;

  /// run_batched over a scalar oracle, called once per architecture in
  /// evaluation order.
  SuccessiveHalvingResult run(const BudgetedOracle& oracle, Rng& rng) const;

 private:
  SuccessiveHalvingParams params_;
  const SearchSpace* space_;
};

}  // namespace anb
