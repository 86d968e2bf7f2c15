#include "anb/anb/harness.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "anb/ir/model_ir.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/nas/reinforce.hpp"
#include "anb/searchspace/zoo.hpp"
#include "anb/util/error.hpp"
#include "anb/util/pareto.hpp"
#include "anb/util/stats.hpp"

namespace anb {

std::vector<TrajectoryComparison> compare_trajectories(
    const AccelNASBench& bench, const SpaceSim& sim,
    const TrainingScheme& p_star, const TrajectoryConfig& config) {
  ANB_CHECK(config.n_evals >= 1 && config.n_sim_seeds >= 1,
            "compare_trajectories: invalid budgets");
  const SearchSpace& sp = sim.space();
  ANB_CHECK(sp.id() == bench.space(),
            "compare_trajectories: benchmark/simulator space mismatch");

  // True oracle: an actual (simulated) training run under p*.
  std::size_t true_run_counter = 0;
  SearchOracle true_oracle = EvalOracle([&](const Arch& arch) {
    return sim.train(arch, p_star, /*run_seed=*/true_run_counter++).top1;
  });
  // Benchmark-backed runs use the batched oracle: optimizers hand whole
  // populations to query_accuracy_batch, which dedupes against the query
  // cache and runs one vectorized prediction. Trajectories are identical
  // to the scalar path (batched prediction is bit-identical).
  SearchOracle sim_oracle = BatchEvalOracle([&](std::span<const Arch> archs) {
    return bench.query_accuracy_batch(archs);
  });

  std::vector<std::unique_ptr<NasOptimizer>> optimizers;
  optimizers.push_back(std::make_unique<RandomSearchNas>(sp));
  optimizers.push_back(
      std::make_unique<RegularizedEvolution>(RegularizedEvolutionParams{}, sp));
  optimizers.push_back(std::make_unique<Reinforce>(ReinforceParams{}, sp));

  std::vector<TrajectoryComparison> out;
  for (const auto& optimizer : optimizers) {
    TrajectoryComparison cmp;
    cmp.optimizer = optimizer->name();

    Rng true_rng(hash_combine(config.seed, 0x7101));
    cmp.true_incumbent =
        optimizer->run(true_oracle, config.n_evals, true_rng).incumbent;

    cmp.sim_mean_incumbent.assign(static_cast<std::size_t>(config.n_evals),
                                  0.0);
    for (int s = 0; s < config.n_sim_seeds; ++s) {
      Rng sim_rng(hash_combine(config.seed,
                               0x51A0 + static_cast<std::uint64_t>(s)));
      auto traj = optimizer->run(sim_oracle, config.n_evals, sim_rng);
      for (std::size_t i = 0; i < traj.incumbent.size(); ++i)
        cmp.sim_mean_incumbent[i] += traj.incumbent[i];
      cmp.sim_incumbents.push_back(std::move(traj.incumbent));
    }
    for (double& v : cmp.sim_mean_incumbent) v /= config.n_sim_seeds;
    out.push_back(std::move(cmp));
  }
  return out;
}

ParetoOutcome pareto_search(const AccelNASBench& bench,
                            const ParetoSearchConfig& config) {
  ANB_CHECK(bench.has_accuracy(), "pareto_search: missing accuracy surrogate");
  ANB_CHECK(bench.has_perf(config.key),
            "pareto_search: missing perf surrogate for the target device");
  ANB_CHECK(config.n_targets >= 1 && config.n_evals_per_target >= 1,
            "pareto_search: invalid budgets");

  const SearchSpace& sp = anb::space(bench.space());
  const bool higher_better = config.key.metric == PerfMetric::kThroughput;

  // Estimate the device's performance range to place the reward targets.
  Rng range_rng(hash_combine(config.seed, 0xFA2));
  std::vector<Arch> sampled;
  for (int i = 0; i < 256; ++i) sampled.push_back(sp.sample(range_rng));
  const std::vector<double> sampled_perf =
      bench.query_perf_batch(sampled, config.key);

  ParetoOutcome out;
  for (int t = 0; t < config.n_targets; ++t) {
    const double q =
        config.n_targets > 1
            ? 0.1 + 0.8 * static_cast<double>(t) / (config.n_targets - 1)
            : 0.5;
    const double target = std::max(1e-9, quantile(sampled_perf, q));
    const double w = higher_better ? config.weight : -config.weight;

    SearchOracle reward_oracle = EvalOracle([&](const Arch& arch) {
      const double acc = bench.query_accuracy(arch);
      const double perf = bench.query_perf(arch, config.key);
      return mnasnet_reward(acc, std::max(perf, 1e-9), target, w);
    });

    Reinforce optimizer(ReinforceParams{}, sp);
    Rng rng(hash_combine(config.seed, 0xB10 + static_cast<std::uint64_t>(t)));
    const auto traj =
        optimizer.run(reward_oracle, config.n_evals_per_target, rng);
    // Batched re-scoring of the whole trajectory; every architecture was
    // already queried inside reward_oracle, so these are pure cache hits.
    const std::vector<double> accs = bench.query_accuracy_batch(
        std::span<const Arch>(traj.archs));
    const std::vector<double> perfs = bench.query_perf_batch(
        std::span<const Arch>(traj.archs), config.key);
    for (std::size_t i = 0; i < traj.archs.size(); ++i) {
      out.archs.push_back(traj.archs[i]);
      out.accuracy.push_back(accs[i]);
      out.perf.push_back(perfs[i]);
    }
  }

  out.front = pareto_front(out.accuracy, out.perf, /*maximize1=*/true,
                           /*maximize2=*/higher_better);

  // Dedupe identical architectures on the front (keep first occurrence).
  {
    std::vector<std::size_t> unique_front;
    std::vector<std::uint64_t> seen;
    for (std::size_t idx : out.front) {
      const std::uint64_t key = sp.to_index(out.archs[idx]);
      if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
        seen.push_back(key);
        unique_front.push_back(idx);
      }
    }
    out.front = std::move(unique_front);
  }

  // "Hand-picked" stars: spread selections along the front.
  const int n_picks =
      std::min<int>(config.n_picks, static_cast<int>(out.front.size()));
  for (int p = 0; p < n_picks; ++p) {
    const double pos = n_picks > 1
                           ? static_cast<double>(p) / (n_picks - 1)
                           : 0.5;
    const auto at = static_cast<std::size_t>(
        std::lround(pos * static_cast<double>(out.front.size() - 1)));
    out.picks.push_back(out.front[at]);
  }
  return out;
}

std::vector<TrueEvalRow> true_evaluation(const ParetoOutcome& outcome,
                                         const SpaceSim& sim, MetricKey key,
                                         const std::string& tag,
                                         std::uint64_t seed) {
  const Device dev = make_device(key.device);
  // FPGA DPUs run int8: the paper applies 8-bit post-training quantization
  // before deployment (§3.3.2), so reported accuracies take the PTQ hit.
  const bool quantized = device_supports_latency(key.device);
  auto measure = [&](const ModelIR& ir, std::uint64_t s) {
    switch (key.metric) {
      case PerfMetric::kThroughput: return dev.measure_throughput(ir, s);
      case PerfMetric::kLatency: return dev.measure_latency(ir, s);
      case PerfMetric::kEnergy: return dev.measure_energy(ir, s);
      case PerfMetric::kPeakMemory: return dev.measure_peak_memory(ir, s);
    }
    throw Error("true_evaluation: unknown metric");
  };
  auto accuracy_of = [&](const Arch& arch) {
    double acc = sim.train(arch, reference_scheme(), seed).top1;
    if (quantized) acc -= sim.int8_accuracy_drop(arch);
    return acc;
  };

  std::vector<TrueEvalRow> rows;
  char suffix = 'a';
  for (std::size_t pick : outcome.picks) {
    ANB_CHECK(pick < outcome.archs.size(),
              "true_evaluation: pick index out of range");
    TrueEvalRow row;
    row.name = "anb-" + tag + "-" + std::string(1, suffix++);
    row.accuracy = accuracy_of(outcome.archs[pick]);
    row.perf = measure(sim.lower(outcome.archs[pick], 224),
                       hash_combine(seed, pick));
    row.is_ours = true;
    rows.push_back(std::move(row));
  }
  // The reference-zoo baselines are MnasNet models; on other spaces there
  // is no published baseline set to compare against.
  if (sim.space().id() == SpaceId::kMnasNet) {
    for (const auto& baseline : reference_zoo()) {
      TrueEvalRow row;
      row.name = baseline.name;
      row.accuracy = accuracy_of(baseline.arch);
      row.perf = measure(sim.lower(baseline.arch, 224),
                         hash_combine(seed, sim.noise_key(baseline.arch)));
      row.is_ours = false;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace anb
