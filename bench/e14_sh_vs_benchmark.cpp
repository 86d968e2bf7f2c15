// E14 — ablation: classic training-proxy search (successive halving on real
// training) vs zero-cost benchmark search, at matched simulated GPU-hours.
//
// §3.2 motivates training proxies via successive halving / hyperband. This
// harness quantifies what the *benchmark* buys over that classic approach:
// run SH against the training simulator (paying simulated GPU-hours), run
// plain random search with the same GPU-hour budget, and run regularized
// evolution against the surrogates (zero marginal cost once the benchmark
// exists). All winners are then re-trained with the reference scheme for a
// fair final comparison.

#include <cstdio>
#include <iostream>

#include "anb/anb/harness.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/nas/successive_halving.hpp"
#include "anb/util/table.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E14: successive halving vs zero-cost search",
                      "DESIGN.md E14 (motivated by paper §3.2)");

  const auto sim = make_space_sim(SpaceId::kMnasNet, bench::kWorldSeed);

  // --- (a) successive halving on simulated real training ------------------
  SuccessiveHalvingParams sh_params;
  sh_params.initial_population = bench::fast_mode() ? 27 : 81;
  sh_params.eta = 3;
  sh_params.min_epochs = 5;
  sh_params.max_epochs = 45;
  SuccessiveHalving sh(sh_params);
  BudgetedOracle oracle = [&](const Arch& arch, int epochs) {
    TrainingScheme scheme = canonical_p_star();
    scheme.total_epochs = epochs;
    scheme.resize_finish_epoch =
        std::min(scheme.resize_finish_epoch, epochs);
    const TrainResult run = sim->train(arch, scheme, /*run_seed=*/epochs);
    return BudgetedEval{run.top1, run.gpu_hours};
  };
  Rng sh_rng(hash_combine(bench::kWorldSeed, 0x5A));
  const auto sh_result = sh.run(oracle, sh_rng);
  std::printf("\nsuccessive halving: %d rounds, %zu trainings, %.0f "
              "sim-GPU-hours\n",
              sh_result.rounds, sh_result.evals.size(),
              sh_result.total_cost_hours);

  // --- (b) random search with the same GPU-hour budget -------------------
  Rng rs_rng(hash_combine(bench::kWorldSeed, 0x5B));
  Arch rs_best;
  double rs_best_acc = -1.0;
  double rs_cost = 0.0;
  int rs_trainings = 0;
  while (rs_cost < sh_result.total_cost_hours) {
    const Arch arch = MnasSpace::instance().sample(rs_rng);
    const TrainResult run = sim->train(arch, canonical_p_star(), 0);
    rs_cost += run.gpu_hours;
    ++rs_trainings;
    if (run.top1 > rs_best_acc) {
      rs_best_acc = run.top1;
      rs_best = arch;
    }
  }
  std::printf("budget-matched random search: %d full p* trainings, %.0f "
              "sim-GPU-hours\n",
              rs_trainings, rs_cost);

  // --- (c) zero-cost search over the benchmark ----------------------------
  PipelineOptions options;
  options.world_seed = bench::kWorldSeed;
  options.n_archs = bench::collection_size();
  options.collect_perf = false;
  const PipelineResult pipe = construct_benchmark(options);
  RegularizedEvolution re;
  Rng re_rng(hash_combine(bench::kWorldSeed, 0x5C));
  EvalOracle zero_cost = [&](const Arch& arch) {
    return pipe.bench.query_accuracy(arch);
  };
  const auto re_traj = re.run(zero_cost, bench::fast_mode() ? 400 : 1000,
                              re_rng);
  std::printf("zero-cost RE over the benchmark: %zu queries, ~0 marginal "
              "GPU-hours\n\n",
              re_traj.size());

  // --- final fair comparison: reference-scheme retraining ------------------
  auto final_accuracy = [&](const Arch& arch) {
    return sim->train(arch, reference_scheme(), /*run_seed=*/99).top1;
  };
  TextTable table({"method", "search cost (GPU-h)", "winner top-1 (ref)"});
  table.add_row({"successive halving (true training)",
                 TextTable::num(sh_result.total_cost_hours, 0),
                 TextTable::num(final_accuracy(sh_result.best), 4)});
  table.add_row({"random search (true training)",
                 TextTable::num(rs_cost, 0),
                 TextTable::num(final_accuracy(rs_best), 4)});
  table.add_row({"RE on Accel-NASBench (zero-cost)", "~0",
                 TextTable::num(final_accuracy(re_traj.best_arch()), 4)});
  table.print(std::cout);
  std::printf("\nExpected shape: the benchmark-backed search matches or "
              "beats SH's winner while\nspending no marginal GPU-hours — "
              "the sustainability argument of the paper's title.\n");
  anb::bench::export_obs("e14_sh_vs_benchmark");
  return 0;
}
