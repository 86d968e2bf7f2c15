// E5 — Fig. 5: trajectory of uni-objective search, true vs simulated.
//
// Runs Regularized Evolution, Random Search, and REINFORCE (a) against the
// training simulator with scheme p* ("true", one run — it is expensive) and
// (b) against the Accel-NASBench accuracy surrogate ("simulated", five seeds
// averaged). The paper's observation: trajectories match, with RS
// stagnating early on the MnasNet space while RE/REINFORCE keep improving.

#include <cstdio>
#include <iostream>

#include "anb/anb/harness.hpp"
#include "anb/util/csv.hpp"
#include "anb/util/table.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E5: uni-objective search trajectories", "Figure 5");

  PipelineOptions options;
  options.world_seed = bench::kWorldSeed;
  options.n_archs = bench::collection_size();
  options.collect_perf = false;
  const PipelineResult pipe = construct_benchmark(options);
  std::printf("Benchmark constructed: accuracy surrogate test tau = %.3f\n\n",
              pipe.test_metrics.at("ANB-Acc").kendall_tau);

  const auto sim = make_space_sim(SpaceId::kMnasNet, bench::kWorldSeed);
  TrajectoryConfig config;
  config.n_evals = bench::fast_mode() ? 120 : 300;
  config.n_sim_seeds = 5;  // paper: simulated runs averaged over five seeds
  config.seed = 3;

  const auto comparisons =
      compare_trajectories(pipe.bench, *sim, pipe.p_star, config);

  // Print incumbent curves at checkpoints.
  const std::vector<int> checkpoints = [&] {
    std::vector<int> c;
    for (int at = 10; at <= config.n_evals; at *= 2) c.push_back(at);
    if (c.empty() || c.back() != config.n_evals) c.push_back(config.n_evals);
    return c;
  }();

  for (const char* mode : {"true", "simulated"}) {
    std::printf("--- %s runs ---\n", mode);
    TextTable table([&] {
      std::vector<std::string> header{"optimizer"};
      for (int at : checkpoints)
        header.push_back("@" + std::to_string(at));
      return header;
    }());
    for (const auto& cmp : comparisons) {
      std::vector<std::string> row{cmp.optimizer};
      const auto& curve = std::string(mode) == "true"
                              ? cmp.true_incumbent
                              : cmp.sim_mean_incumbent;
      for (int at : checkpoints)
        row.push_back(TextTable::num(curve[static_cast<std::size_t>(at - 1)], 4));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  // Shape checks mirroring the paper's discussion.
  const auto& rs = comparisons[0];
  const auto& re = comparisons[1];
  const auto& reinforce = comparisons[2];
  std::printf("\nShape summary (final incumbents):\n");
  std::printf("  true:      RS %.4f | RE %.4f | REINFORCE %.4f\n",
              rs.true_incumbent.back(), re.true_incumbent.back(),
              reinforce.true_incumbent.back());
  std::printf("  simulated: RS %.4f | RE %.4f | REINFORCE %.4f\n",
              rs.sim_mean_incumbent.back(), re.sim_mean_incumbent.back(),
              reinforce.sim_mean_incumbent.back());
  const bool rs_lags_true =
      rs.true_incumbent.back() <= re.true_incumbent.back() &&
      rs.true_incumbent.back() <= reinforce.true_incumbent.back();
  const bool rs_lags_sim =
      rs.sim_mean_incumbent.back() <= re.sim_mean_incumbent.back() &&
      rs.sim_mean_incumbent.back() <= reinforce.sim_mean_incumbent.back();
  std::printf("  RS trails RE/REINFORCE: true=%s simulated=%s "
              "(paper: yes on both)\n",
              rs_lags_true ? "yes" : "NO", rs_lags_sim ? "yes" : "NO");

  CsvWriter csv({"optimizer", "eval", "true_incumbent", "sim_mean_incumbent"});
  for (const auto& cmp : comparisons) {
    for (std::size_t i = 0; i < cmp.true_incumbent.size(); ++i) {
      csv.add_row({cmp.optimizer, std::to_string(i + 1),
                   std::to_string(cmp.true_incumbent[i]),
                   std::to_string(cmp.sim_mean_incumbent[i])});
    }
  }
  csv.save(bench::results_path("fig5_trajectories.csv"));
  std::printf("\nCurves written to results/fig5_trajectories.csv\n");
  anb::bench::export_obs("fig5_trajectories");
  return 0;
}
