// E2 — Fig. 3: validation of the searched proxy p*.
//
// 120 random, previously unseen architectures are trained with both p* and
// the reference scheme r, three seeds each. The paper reports a validation
// rank correlation of tau = 0.926 between the seed-averaged accuracies.
// This harness prints the scatter series behind the figure and the tau.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "anb/util/csv.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/stats.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E2: validation of p* on unseen models", "Figure 3");

  const auto sim = make_space_sim(SpaceId::kMnasNet, bench::kWorldSeed);
  const SearchSpace& sp = sim->space();
  const TrainingScheme p_star = canonical_p_star();
  const TrainingScheme ref = reference_scheme();

  const int n_models = 120;  // paper: 120 random unseen models
  const int n_seeds = 3;     // paper: three seeds per model

  Rng rng(hash_combine(bench::kWorldSeed, 0xF16));
  std::vector<double> mean_proxy, mean_ref, err_proxy, err_ref;
  CsvWriter csv({"arch", "acc_ref_mean", "acc_ref_std", "acc_proxy_mean",
                 "acc_proxy_std"});

  for (int m = 0; m < n_models; ++m) {
    const Arch arch = sp.sample(rng);
    std::vector<double> proxy_runs, ref_runs;
    for (int s = 0; s < n_seeds; ++s) {
      proxy_runs.push_back(
          sim->train(arch, p_star, static_cast<std::uint64_t>(s)).top1);
      ref_runs.push_back(
          sim->train(arch, ref, static_cast<std::uint64_t>(s)).top1);
    }
    mean_proxy.push_back(mean(proxy_runs));
    mean_ref.push_back(mean(ref_runs));
    err_proxy.push_back(stddev(proxy_runs));
    err_ref.push_back(stddev(ref_runs));
    csv.add_row({sp.arch_to_string(arch), std::to_string(mean_ref.back()),
                 std::to_string(err_ref.back()),
                 std::to_string(mean_proxy.back()),
                 std::to_string(err_proxy.back())});
  }

  const double tau = kendall_tau(mean_proxy, mean_ref);
  const double rho = spearman_rho(mean_proxy, mean_ref);

  std::printf("\n%d unseen models x %d seeds, trained with p* and r\n",
              n_models, n_seeds);
  std::printf("  validation Kendall tau : %.3f   (paper: 0.926)\n", tau);
  std::printf("  validation Spearman rho: %.3f\n", rho);
  std::printf("  reference acc range    : [%.3f, %.3f]\n",
              min_value(mean_ref), max_value(mean_ref));
  std::printf("  proxified acc range    : [%.3f, %.3f]\n",
              min_value(mean_proxy), max_value(mean_proxy));
  std::printf("  mean seed-noise (std)  : r %.4f | p* %.4f\n",
              mean(err_ref), mean(err_proxy));

  // Coarse ASCII rendition of the Fig. 3 scatter.
  std::printf("\nA_p* (y) vs A_r (x) scatter (120 points):\n");
  const double x_lo = min_value(mean_ref), x_hi = max_value(mean_ref);
  const double y_lo = min_value(mean_proxy), y_hi = max_value(mean_proxy);
  const int width = 64, height = 20;
  std::vector<std::string> canvas(height, std::string(width, ' '));
  for (int m = 0; m < n_models; ++m) {
    const int cx = static_cast<int>((mean_ref[static_cast<std::size_t>(m)] - x_lo) /
                                    (x_hi - x_lo) * (width - 1));
    const int cy = static_cast<int>((mean_proxy[static_cast<std::size_t>(m)] - y_lo) /
                                    (y_hi - y_lo) * (height - 1));
    canvas[static_cast<std::size_t>(height - 1 - cy)]
          [static_cast<std::size_t>(cx)] = '*';
  }
  for (const auto& line : canvas) std::printf("|%s|\n", line.c_str());
  std::printf(" x: A_r in [%.3f, %.3f], y: A_p* in [%.3f, %.3f]\n", x_lo,
              x_hi, y_lo, y_hi);

  csv.save(bench::results_path("fig3_proxy_validation.csv"));
  std::printf("\nScatter data written to results/fig3_proxy_validation.csv\n");
  anb::bench::export_obs("fig3_proxy_validation");
  return 0;
}
