#include "anb/nas/successive_halving.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "anb/trainsim/space_sim.hpp"
#include "anb/util/error.hpp"

namespace anb {
namespace {

/// Synthetic budgeted oracle: true quality + noise that shrinks with epochs;
/// cost proportional to epochs.
BudgetedOracle synthetic_oracle() {
  return [](const Arch& genotype, int epochs) {
    double quality = 0.0;
    for (int b = 0; b < kNumBlocks; ++b)
      quality += MnasSpace::expansion(genotype, b) * 0.1 +
                 MnasSpace::layers(genotype, b) * 0.05 +
                 (MnasSpace::se(genotype, b) ? 0.1 : 0);
    static const MnasSpaceSim sim;
    Rng noise(hash_combine(sim.noise_key(genotype),
                           static_cast<std::uint64_t>(epochs)));
    BudgetedEval eval;
    eval.accuracy = quality + noise.normal() * (0.5 / std::sqrt(epochs));
    eval.cost_hours = epochs * 0.01;
    return eval;
  };
}

TEST(SuccessiveHalvingTest, HalvesPopulationEachRound) {
  SuccessiveHalvingParams params;
  params.initial_population = 27;
  params.eta = 3;
  params.min_epochs = 5;
  params.max_epochs = 45;
  SuccessiveHalving sh(params);
  Rng rng(1);
  const auto result = sh.run(synthetic_oracle(), rng);
  // 27 @5, 9 @15, 3 @45 -> 3 rounds, 39 evaluations.
  EXPECT_EQ(result.rounds, 3);
  EXPECT_EQ(result.evals.size(), 39u);
  // Cost: 27*0.05 + 9*0.15 + 3*0.45 = 4.05 hours.
  EXPECT_NEAR(result.total_cost_hours, 4.05, 1e-9);
  // Budget schedule recorded correctly.
  EXPECT_EQ(result.evals.front().epochs, 5);
  EXPECT_EQ(result.evals.back().epochs, 45);
}

TEST(SuccessiveHalvingTest, FindsBetterThanMedianRandom) {
  SuccessiveHalving sh;
  Rng rng(2);
  const auto result = sh.run(synthetic_oracle(), rng);
  // Winner should be near the top of the synthetic quality scale (~9.45 max
  // of 7 * (0.6 + 0.15 + 0.1) = 5.95 ... compute: e6*0.1=0.6, L3*0.05=0.15,
  // se 0.1 -> 0.85 per block, 5.95 total). Random mean ~ 4.13.
  EXPECT_GT(result.best_accuracy, 4.6);
}

TEST(SuccessiveHalvingTest, SpendsMoreOnSurvivors) {
  SuccessiveHalving sh;
  Rng rng(3);
  const auto result = sh.run(synthetic_oracle(), rng);
  // The final-round evaluations all use the max budget.
  int max_epoch_evals = 0;
  for (const auto& eval : result.evals) max_epoch_evals += eval.epochs == 45;
  EXPECT_GT(max_epoch_evals, 0);
  EXPECT_LT(max_epoch_evals, 10);
}

TEST(SuccessiveHalvingTest, Validation) {
  SuccessiveHalvingParams params;
  params.initial_population = 1;
  EXPECT_THROW(SuccessiveHalving{params}, Error);
  params.initial_population = 9;
  params.eta = 1;
  EXPECT_THROW(SuccessiveHalving{params}, Error);
  params.eta = 3;
  params.min_epochs = 50;
  params.max_epochs = 10;
  EXPECT_THROW(SuccessiveHalving{params}, Error);
  SuccessiveHalving ok;
  Rng rng(4);
  EXPECT_THROW(ok.run(nullptr, rng), Error);
}

}  // namespace
}  // namespace anb
