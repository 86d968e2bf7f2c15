// Scenario: you invented a NAS optimizer — evaluate it for free.
//
// This is the benchmark's raison d'être (§1): NAS-optimizer research without
// GPU clusters. We implement a toy "greedy local search" optimizer against
// the NasOptimizer interface (override run_batched, its one search loop)
// and race it against the built-in RS / RE / REINFORCE baselines, all on
// zero-cost surrogate evaluations, with multiple seeds in seconds.

#include <cstdio>

#include "anb/anb/pipeline.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/nas/reinforce.hpp"
#include "anb/util/stats.hpp"

namespace {

using namespace anb;

/// Toy optimizer: restart-on-plateau greedy hill-climbing over the
/// one-decision-change neighborhood.
class GreedyLocalSearch final : public NasOptimizer {
 public:
  std::string name() const override { return "GreedyLS"; }

  SearchTrajectory run_batched(const BatchEvalOracle& batch, int n_evals,
                               Rng& rng) override {
    // Each step needs the previous score, so architectures go one at a time.
    const auto oracle = [&batch](const Arch& arch) {
      return batch({&arch, 1}).at(0);
    };
    SearchTrajectory traj;
    Arch current = space().sample(rng);
    double current_value = oracle(current);
    traj.add(current, current_value);
    int stale = 0;
    while (static_cast<int>(traj.size()) < n_evals) {
      const Arch candidate = space().mutate(current, rng);
      const double value = oracle(candidate);
      traj.add(candidate, value);
      if (value > current_value) {
        current = candidate;
        current_value = value;
        stale = 0;
      } else if (++stale > 40) {  // restart when the neighborhood is dry
        current = space().sample(rng);
        if (static_cast<int>(traj.size()) >= n_evals) break;
        current_value = oracle(current);
        traj.add(current, current_value);
        stale = 0;
      }
    }
    return traj;
  }
};

}  // namespace

int main() {
  using namespace anb;

  PipelineOptions options;
  options.n_archs = 1200;
  options.collect_perf = false;
  const PipelineResult result = construct_benchmark(options);

  EvalOracle oracle = [&](const Arch& arch) {
    return result.bench.query_accuracy(arch);
  };

  const int n_evals = 400;
  const int n_seeds = 5;
  std::printf("racing optimizers: %d evaluations x %d seeds, all zero-cost\n\n",
              n_evals, n_seeds);

  std::vector<std::unique_ptr<NasOptimizer>> optimizers;
  optimizers.push_back(std::make_unique<RandomSearchNas>());
  optimizers.push_back(std::make_unique<RegularizedEvolution>());
  optimizers.push_back(std::make_unique<Reinforce>());
  optimizers.push_back(std::make_unique<GreedyLocalSearch>());

  std::printf("%-10s %-18s %-18s\n", "optimizer", "best@400 (mean)",
              "best@400 (std)");
  for (const auto& optimizer : optimizers) {
    std::vector<double> finals;
    for (int seed = 0; seed < n_seeds; ++seed) {
      Rng rng(hash_combine(77, static_cast<std::uint64_t>(seed)));
      finals.push_back(optimizer->run(oracle, n_evals, rng).best_value());
    }
    std::printf("%-10s %-18.4f %-18.4f\n", optimizer->name().c_str(),
                mean(finals), stddev(finals));
  }

  std::printf("\n(each row would have cost thousands of GPU-hours with real "
              "training;\nhere the whole table costs milliseconds of query "
              "time)\n");
  return 0;
}
