// E13 — generalizability study on a second search space.
//
// The paper points to its repository "for experiments with additional search
// spaces and datasets for generalizability studies" (§3.1). This harness
// runs the complete methodology against the FBNet-style layer-wise space
// (~10^17.7 models, 22 searchable layers):
//   1. proxy fidelity: tau between p*-trained and reference-trained ranks,
//   2. surrogate fidelity: Table-1-style XGB/LGB/SVR metrics on a fresh
//      accuracy dataset collected in that space,
//   3. device-performance surrogate on the ZCU102 (Table-2-style),
//   4. search shape: RE vs RS on the surrogate, Fig-5-style.

#include <cstdio>
#include <iostream>
#include <set>
#include <span>

#include "anb/anb/space_sim.hpp"
#include "anb/anb/tuning.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/util/csv.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/table.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E13: FBNet-space generalizability",
                      "DESIGN.md E13 (paper §3.1 pointer)");

  const std::unique_ptr<SpaceSim> sim =
      make_space_sim(SpaceId::kFbnet, bench::kWorldSeed);
  const SearchSpace& sp = sim->space();
  const auto dim = static_cast<std::size_t>(sp.feature_dim());
  const TrainingScheme p_star = canonical_p_star();
  const int n_archs = bench::fast_mode() ? 800 : 2600;

  // --- 1. proxy fidelity on the new space --------------------------------
  Rng rng(hash_combine(bench::kWorldSeed, 0xFB13));
  std::vector<double> ref_acc, proxy_acc;
  double proxy_cost = 0.0, ref_cost = 0.0;
  for (int i = 0; i < 120; ++i) {
    const Arch arch = sp.sample(rng);
    ref_acc.push_back(sim->train(arch, reference_scheme(), 0).top1);
    const TrainResult run = sim->train(arch, p_star, 0);
    proxy_acc.push_back(run.top1);
    proxy_cost += run.gpu_hours;
    ref_cost += sim->training_cost_hours(arch, reference_scheme());
  }
  std::printf("\n[1/4] proxy fidelity on FBNet space (120 models):\n");
  std::printf("  tau(p*, r) = %.3f (MnasNet space: ~0.93; paper: 0.926)\n",
              kendall_tau(proxy_acc, ref_acc));
  std::printf("  cost reduction = %.1fx\n", ref_cost / proxy_cost);

  // --- 2. accuracy-surrogate fidelity -------------------------------------
  std::printf("\n[2/4] accuracy surrogates on %d FBNet architectures:\n",
              n_archs);
  Dataset acc_data(dim);
  std::vector<Arch> collected;
  {
    Rng crng(hash_combine(bench::kWorldSeed, 0xFB14));
    std::set<std::uint64_t> seen;
    while (static_cast<int>(collected.size()) < n_archs) {
      const Arch arch = sp.sample(crng);
      if (!seen.insert(sp.to_index(arch)).second) continue;
      collected.push_back(arch);
      acc_data.add(sp.features(arch),
                   sim->train(arch, p_star, collected.size()).top1);
    }
  }
  Rng split_rng(13);
  const DatasetSplits splits = acc_data.split(0.8, 0.1, split_rng);
  TextTable table({"Model", "R2", "KT tau", "MAE"});
  CsvWriter csv({"model", "r2", "tau", "mae"});
  for (SurrogateKind kind : {SurrogateKind::kXgb, SurrogateKind::kLgb,
                             SurrogateKind::kRf, SurrogateKind::kEpsSvr}) {
    auto model = make_default_surrogate(kind);
    Rng fit_rng(hash_combine(99, static_cast<std::uint64_t>(kind)));
    model->fit(splits.train, fit_rng);
    const FitMetrics m = model->evaluate(splits.test);
    table.add_row({surrogate_kind_label(kind), TextTable::num(m.r2, 3),
                   TextTable::num(m.kendall_tau, 3), TextTable::sci(m.mae, 2)});
    csv.add_row({surrogate_kind_name(kind), std::to_string(m.r2),
                 std::to_string(m.kendall_tau), std::to_string(m.mae)});
  }
  table.print(std::cout);

  // --- 3. device surrogate (ZCU102 throughput) ---------------------------
  std::printf("\n[3/4] ZCU102 throughput surrogate on the FBNet space:\n");
  const Device zcu = make_device(DeviceKind::kZcu102);
  Dataset thr_data(dim);
  for (std::size_t i = 0; i < collected.size(); ++i) {
    thr_data.add(sp.features(collected[i]),
                 zcu.measure_throughput(sim->lower(collected[i], 224), i));
  }
  Rng split2(14);
  const DatasetSplits thr_splits = thr_data.split(0.8, 0.1, split2);
  auto thr_model = make_default_surrogate(SurrogateKind::kXgb);
  Rng fit2(101);
  thr_model->fit(thr_splits.train, fit2);
  const FitMetrics tm = thr_model->evaluate(thr_splits.test);
  std::printf("  XGB: R2 %.3f, tau %.3f, MAE %.1f img/s "
              "(MnasNet-space Table 2 row: tau ~0.93)\n",
              tm.r2, tm.kendall_tau, tm.mae);

  // --- 4. search shape over the surrogate ---------------------------------
  std::printf("\n[4/4] search shape over the fitted accuracy surrogate:\n");
  auto acc_model = make_default_surrogate(SurrogateKind::kXgb);
  Rng fit3(102);
  acc_model->fit(splits.train, fit3);
  const BatchEvalOracle oracle = [&](std::span<const Arch> archs) {
    std::vector<double> rows;
    rows.reserve(archs.size() * dim);
    for (const Arch& arch : archs) {
      const std::vector<double> x = sp.features(arch);
      rows.insert(rows.end(), x.begin(), x.end());
    }
    std::vector<double> out(archs.size());
    acc_model->predict_batch(rows, dim, out);
    return out;
  };
  const int budget = bench::fast_mode() ? 150 : 300;
  RandomSearchNas rs(sp);
  RegularizedEvolution re({.population_size = 30, .sample_size = 2}, sp);
  Rng rs_rng(7), re_rng(7);
  const double rs_best = rs.run(oracle, budget, rs_rng).incumbent.back();
  const double re_best = re.run(oracle, budget, re_rng).incumbent.back();
  std::printf("  incumbent@end: RS %.4f | RE %.4f (RE should lead, as on "
              "MnasNet)\n",
              rs_best, re_best);

  csv.save(bench::results_path("e13_generalizability.csv"));
  std::printf("\nSurrogate rows written to results/e13_generalizability.csv\n");
  anb::bench::export_obs("e13_generalizability");
  return 0;
}
