#include "anb/nas/successive_halving.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "anb/util/error.hpp"

namespace anb {

SuccessiveHalving::SuccessiveHalving(SuccessiveHalvingParams params,
                                     const SearchSpace& space)
    : params_(params), space_(&space) {
  ANB_CHECK(params_.initial_population >= 2,
            "SuccessiveHalving: initial_population must be >= 2");
  ANB_CHECK(params_.eta >= 2, "SuccessiveHalving: eta must be >= 2");
  ANB_CHECK(params_.min_epochs >= 1 &&
                params_.min_epochs <= params_.max_epochs,
            "SuccessiveHalving: require 1 <= min_epochs <= max_epochs");
}

SuccessiveHalvingResult SuccessiveHalving::run(const BudgetedOracle& oracle,
                                               Rng& rng) const {
  ANB_CHECK(static_cast<bool>(oracle), "SuccessiveHalving: missing oracle");
  return run_batched(
      [&oracle](std::span<const Arch> archs, int epochs) {
        std::vector<BudgetedEval> out;
        out.reserve(archs.size());
        for (const Arch& arch : archs) out.push_back(oracle(arch, epochs));
        return out;
      },
      rng);
}

SuccessiveHalvingResult SuccessiveHalving::run_batched(
    const BudgetedBatchOracle& oracle, Rng& rng) const {
  ANB_CHECK(static_cast<bool>(oracle), "SuccessiveHalving: missing oracle");

  struct Member {
    Arch arch;
    double accuracy = 0.0;
  };
  std::vector<Member> population;
  population.reserve(static_cast<std::size_t>(params_.initial_population));
  for (int i = 0; i < params_.initial_population; ++i)
    population.push_back({space_->sample(rng), 0.0});

  SuccessiveHalvingResult result;
  int epochs = params_.min_epochs;
  while (true) {
    ++result.rounds;
    // One batched call scores the whole round: every survivor's budget is
    // fixed before any of them is evaluated.
    std::vector<Arch> archs;
    archs.reserve(population.size());
    for (const auto& member : population) archs.push_back(member.arch);
    const std::vector<BudgetedEval> evals = oracle(archs, epochs);
    ANB_CHECK(evals.size() == population.size(),
              "SuccessiveHalving: batched oracle returned wrong size");
    for (std::size_t i = 0; i < population.size(); ++i) {
      population[i].accuracy = evals[i].accuracy;
      result.total_cost_hours += evals[i].cost_hours;
      result.evals.push_back({population[i].arch, evals[i].accuracy, epochs});
    }
    std::sort(population.begin(), population.end(),
              [](const Member& a, const Member& b) {
                return a.accuracy > b.accuracy;
              });

    const bool at_max_budget = epochs >= params_.max_epochs;
    if (population.size() == 1 || at_max_budget) break;

    const std::size_t keep = std::max<std::size_t>(
        1, population.size() / static_cast<std::size_t>(params_.eta));
    population.resize(keep);
    epochs = std::min(params_.max_epochs, epochs * params_.eta);
  }

  result.best = population.front().arch;
  result.best_accuracy = population.front().accuracy;
  return result;
}

}  // namespace anb
