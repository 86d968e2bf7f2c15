// E1 — §3.2: search for the training proxy p*.
//
// Reproduces the headline result of the methodology section: a grid search
// over {b, e_t, e_s, e_f, res_s, res_f} finds a proxified training scheme
// that preserves architecture rankings (Kendall tau vs. the reference
// scheme) while cutting average per-model training cost by a large factor.
// Paper: tau = 0.94 at ~5.6x cost reduction under t_spec = 3 GPU-hours.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "anb/anb/proxy_search.hpp"
#include "anb/util/csv.hpp"
#include "anb/util/table.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E1: training-proxy search", "Section 3.2 / Eq. (1)");

  const auto sim = make_space_sim(SpaceId::kMnasNet, bench::kWorldSeed);
  ProxySearch search(*sim);

  ProxySearchConfig config;
  config.n_models = 20;  // paper: uniform grid of n = 20 models
  config.t_spec_hours = 3.0;
  config.seed = 1;
  if (bench::fast_mode()) {
    config.domains.batch_size = {256, 512};
    config.domains.total_epochs = {10, 20, 30};
  }

  const ProxySearchOutcome outcome = search.run_grid(config);

  std::printf("\nEvaluated %zu candidate schemes on a %d-model grid "
              "(t_spec = %.1f sim-GPU-h)\n\n",
              outcome.trials.size(), config.n_models, config.t_spec_hours);

  TextTable top({"rank", "scheme p", "tau(A_p, A_r)", "t_p (h)", "feasible"});
  // Show the best 10 feasible schemes by tau.
  std::vector<const ProxyTrial*> feasible;
  for (const auto& trial : outcome.trials)
    if (trial.feasible) feasible.push_back(&trial);
  std::sort(feasible.begin(), feasible.end(),
            [](const ProxyTrial* a, const ProxyTrial* b) {
              return a->tau > b->tau;
            });
  for (std::size_t i = 0; i < feasible.size() && i < 10; ++i) {
    top.add_row({std::to_string(i + 1), feasible[i]->scheme.to_string(),
                 TextTable::num(feasible[i]->tau, 3),
                 TextTable::num(feasible[i]->cost_hours, 2), "yes"});
  }
  top.print(std::cout);

  std::printf("\nSearched proxy p* = %s\n", outcome.best.to_string().c_str());
  std::printf("  tau(A_p*, A_r)            : %.3f   (paper: 0.94)\n",
              outcome.best_tau);
  std::printf("  avg cost under p*         : %.2f sim-GPU-h\n",
              outcome.best_cost_hours);
  std::printf("  avg cost under reference r: %.2f sim-GPU-h\n",
              outcome.reference_cost_hours);
  std::printf("  cost reduction t_r / t_p* : %.1fx  (paper: ~5.6x)\n",
              outcome.speedup);

  CsvWriter csv({"scheme", "tau", "cost_hours", "feasible"});
  for (const auto& trial : outcome.trials) {
    csv.add_row({trial.scheme.to_string(), std::to_string(trial.tau),
                 std::to_string(trial.cost_hours),
                 trial.feasible ? "1" : "0"});
  }
  csv.save(bench::results_path("e1_proxy_search.csv"));
  std::printf("\nFull trial log written to results/e1_proxy_search.csv\n");
  anb::bench::export_obs("e1_proxy_search");
  return 0;
}
