// E10 — ablation: surrogate sample-efficiency.
//
// The paper's benchmark rests on fitting surrogates from a "small but
// representative portion" (~5.2k models) of a 7.8e10-model space. This
// ablation sweeps the training-set size and reports held-out test tau/R2,
// locating the point of diminishing returns that justifies the paper's
// collection budget.

#include <cstdio>
#include <iostream>

#include "anb/anb/tuning.hpp"
#include "anb/ir/model_ir.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/csv.hpp"
#include "anb/util/table.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E10: surrogate sample-efficiency", "DESIGN.md E10");

  const CollectedData data = bench::collect_datasets(/*with_perf=*/false);
  const Dataset full = data.accuracy_dataset();
  const DatasetSplits splits = bench::split_paper_style(full);
  std::printf("Test split: %zu rows (fixed across all training sizes)\n\n",
              splits.test.size());

  TextTable table({"train rows", "XGB tau", "XGB R2", "XGB MAE"});
  CsvWriter csv({"train_rows", "tau", "r2", "mae"});

  std::vector<int> sizes{250, 500, 1000, 2000, 4000};
  if (bench::fast_mode()) sizes = {200, 400, 800};
  for (int size : sizes) {
    const auto capped = std::min<std::size_t>(static_cast<std::size_t>(size),
                                              splits.train.size());
    Rng sub_rng(hash_combine(31, static_cast<std::uint64_t>(size)));
    const Dataset train =
        splits.train.subset(sub_rng.sample_indices(splits.train.size(), capped));
    auto model = make_default_surrogate(SurrogateKind::kXgb);
    Rng fit_rng(hash_combine(37, static_cast<std::uint64_t>(size)));
    model->fit(train, fit_rng);
    const FitMetrics m = model->evaluate(splits.test);
    table.add_row({std::to_string(capped), TextTable::num(m.kendall_tau, 3),
                   TextTable::num(m.r2, 3), TextTable::sci(m.mae, 2)});
    csv.add_row({std::to_string(capped), std::to_string(m.kendall_tau),
                 std::to_string(m.r2), std::to_string(m.mae)});
  }

  table.print(std::cout);

  // Context: trivial zero-cost proxies the surrogate must beat. FLOPs and
  // params correlate with accuracy (bigger is better on average) but miss
  // the op-level structure (paper SS1: they are poor device proxies AND
  // mediocre accuracy rankers).
  {
    const auto sim = make_space_sim(SpaceId::kMnasNet, bench::kWorldSeed);
    std::vector<double> acc, flops, params;
    Rng prng(hash_combine(bench::kWorldSeed, 0xBA5E));
    for (int i = 0; i < 400; ++i) {
      const Arch arch = sim->space().sample(prng);
      acc.push_back(sim->train(arch, canonical_p_star(), 0).top1);
      const ModelIR ir = sim->lower(arch, 224);
      flops.push_back(ir.gflops());
      params.push_back(ir.mparams());
    }
    std::printf("\nZero-cost baselines on the same task (rank tau vs "
                "proxified accuracy):\n");
    std::printf("  FLOPs  as predictor: tau = %.3f\n",
                kendall_tau(flops, acc));
    std::printf("  params as predictor: tau = %.3f\n",
                kendall_tau(params, acc));
    std::printf("  (the fitted surrogate above reaches tau ~0.9 — the gap "
                "is the benchmark's value)\n");
  }

  std::printf("\nExpected shape: tau climbs with data and flattens by a few "
              "thousand rows —\nthe paper's ~5.2k collection sits past the "
              "knee (NB301-style 'unbiased surrogate' regime).\n");
  csv.save(bench::results_path("e10_ablation_datasize.csv"));
  std::printf("Series written to results/e10_ablation_datasize.csv\n");
  anb::bench::export_obs("e10_ablation_datasize");
  return 0;
}
