#include "anb/nas/evolution.hpp"

#include <cstddef>
#include <deque>
#include <vector>

#include "anb/util/error.hpp"

namespace anb {

RegularizedEvolution::RegularizedEvolution(RegularizedEvolutionParams params,
                                           const SearchSpace& space)
    : NasOptimizer(space), params_(params) {
  ANB_CHECK(params_.population_size >= 2,
            "RegularizedEvolution: population_size must be >= 2");
  ANB_CHECK(params_.sample_size >= 1 &&
                params_.sample_size <= params_.population_size,
            "RegularizedEvolution: sample_size must be in "
            "[1, population_size]");
}

SearchTrajectory RegularizedEvolution::run_batched(
    const BatchEvalOracle& oracle, int n_evals, Rng& rng) {
  ANB_CHECK(static_cast<bool>(oracle), "RegularizedEvolution: missing oracle");
  ANB_CHECK(n_evals >= 1, "RegularizedEvolution: n_evals must be >= 1");

  struct Member {
    Arch arch;
    double value;
  };
  std::deque<Member> population;
  SearchTrajectory traj;

  // Seed with random architectures (up to the evaluation budget), scored in
  // one batched call: seeds never depend on each other's scores.
  const int n_seed = std::min(params_.population_size, n_evals);
  std::vector<Arch> seeds;
  seeds.reserve(static_cast<std::size_t>(n_seed));
  for (int t = 0; t < n_seed; ++t) seeds.push_back(space().sample(rng));
  const std::vector<double> seed_values = oracle(seeds);
  ANB_CHECK(seed_values.size() == seeds.size(),
            "RegularizedEvolution: batched oracle returned wrong size");
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    traj.add(seeds[i], seed_values[i]);
    population.push_back({seeds[i], seed_values[i]});
  }

  // The evolution loop needs each child's score before the next tournament,
  // so it proceeds in batches of one.
  for (int t = n_seed; t < n_evals; ++t) {
    // Tournament: best of `sample_size` random members becomes the parent.
    const Member* parent = nullptr;
    for (int s = 0; s < params_.sample_size; ++s) {
      const Member& candidate = population[rng.uniform_index(population.size())];
      if (parent == nullptr || candidate.value > parent->value)
        parent = &candidate;
    }
    const Arch child = space().mutate(parent->arch, rng);
    const std::vector<double> child_value = oracle({&child, 1});
    ANB_CHECK(child_value.size() == 1,
              "RegularizedEvolution: batched oracle returned wrong size");
    traj.add(child, child_value[0]);
    population.push_back({child, child_value[0]});
    population.pop_front();  // aging: retire the oldest member
  }
  return traj;
}

}  // namespace anb
