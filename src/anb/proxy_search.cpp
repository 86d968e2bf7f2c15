#include "anb/anb/proxy_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "anb/hpo/optimizers.hpp"
#include "anb/ir/model_ir.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/util/error.hpp"
#include "anb/util/metrics.hpp"

namespace anb {

ProxySearch::ProxySearch(const SpaceSim& sim) : sim_(&sim) {}

std::vector<Arch> ProxySearch::stratified_models(int n, Rng& rng) const {
  ANB_CHECK(n >= 2, "ProxySearch::stratified_models: n must be >= 2");
  // Draw a pool, dedupe, then stratify by FLOPs into n quantile buckets and
  // pick the params-median model of each bucket (even FLOPs x params spread).
  const SearchSpace& sp = sim_->space();
  const int pool_size = std::max(40 * n, 400);
  struct PoolEntry {
    Arch arch;
    double macs;
    double params;
  };
  std::vector<PoolEntry> pool;
  std::set<std::uint64_t> seen;
  while (static_cast<int>(pool.size()) < pool_size) {
    Arch arch = sp.sample(rng);
    if (!seen.insert(sp.to_index(arch)).second) continue;
    const ModelIR ir = sim_->lower(arch, 224);
    pool.push_back({arch, static_cast<double>(ir.total_macs()),
                    static_cast<double>(ir.total_params())});
  }
  std::sort(pool.begin(), pool.end(),
            [](const PoolEntry& a, const PoolEntry& b) {
              return a.macs < b.macs;
            });

  std::vector<Arch> models;
  models.reserve(static_cast<std::size_t>(n));
  const std::size_t bucket = pool.size() / static_cast<std::size_t>(n);
  for (int b = 0; b < n; ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * bucket;
    const std::size_t hi =
        b + 1 == n ? pool.size() : lo + bucket;
    // Params-median entry of the bucket.
    std::vector<std::size_t> idx;
    for (std::size_t i = lo; i < hi; ++i) idx.push_back(i);
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t c) {
      return pool[a].params < pool[c].params;
    });
    models.push_back(pool[idx[idx.size() / 2]].arch);
  }
  return models;
}

ProxyTrial ProxySearch::evaluate_scheme(
    const TrainingScheme& scheme, const std::vector<Arch>& models,
    std::span<const double> reference_acc, double t_spec_hours) const {
  ANB_CHECK(models.size() == reference_acc.size(),
            "ProxySearch::evaluate_scheme: model/reference size mismatch");
  std::vector<double> acc(models.size());
  double cost = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const TrainResult run = sim_->train(models[i], scheme, /*run_seed=*/0);
    acc[i] = run.top1;
    cost += run.gpu_hours;
  }
  ProxyTrial trial;
  trial.scheme = scheme;
  trial.tau = kendall_tau(acc, reference_acc);
  trial.cost_hours = cost / static_cast<double>(models.size());
  trial.feasible = trial.cost_hours <= t_spec_hours;
  return trial;
}

ProxySearchOutcome ProxySearch::finalize(
    std::vector<ProxyTrial> trials,
    const std::vector<Arch>& models) const {
  ANB_CHECK(!trials.empty(), "ProxySearch: no trials evaluated");
  const ProxyTrial* best = nullptr;
  for (const auto& t : trials) {
    if (!t.feasible) continue;
    if (best == nullptr || t.tau > best->tau) best = &t;
  }
  ANB_CHECK(best != nullptr,
            "ProxySearch: no scheme satisfied the t_spec budget");

  ProxySearchOutcome out;
  out.best = best->scheme;
  out.best_tau = best->tau;
  out.best_cost_hours = best->cost_hours;
  double ref_cost = 0.0;
  for (const auto& m : models)
    ref_cost += sim_->training_cost_hours(m, reference_scheme());
  out.reference_cost_hours = ref_cost / static_cast<double>(models.size());
  out.speedup = out.reference_cost_hours / out.best_cost_hours;
  out.trials = std::move(trials);
  return out;
}

ProxySearchOutcome ProxySearch::run_grid(const ProxySearchConfig& config) const {
  Rng rng(config.seed);
  const auto models = stratified_models(config.n_models, rng);
  std::vector<double> ref_acc(models.size());
  for (std::size_t i = 0; i < models.size(); ++i)
    ref_acc[i] = sim_->train(models[i], reference_scheme(), 0).top1;

  std::vector<ProxyTrial> trials;
  for (const auto& scheme : config.domains.enumerate_valid()) {
    trials.push_back(
        evaluate_scheme(scheme, models, ref_acc, config.t_spec_hours));
    if (config.early_stop_tau > 0.0 && trials.back().feasible &&
        trials.back().tau >= config.early_stop_tau) {
      break;
    }
  }
  return finalize(std::move(trials), models);
}

ConfigSpace ProxySearch::scheme_space(const ProxyDomains& domains) {
  auto to_doubles = [](const std::vector<int>& xs) {
    std::vector<double> out(xs.begin(), xs.end());
    return out;
  };
  ConfigSpace space;
  space.add_categorical("b", to_doubles(domains.batch_size));
  space.add_categorical("e_t", to_doubles(domains.total_epochs));
  space.add_categorical("e_s", to_doubles(domains.resize_start_epoch));
  space.add_categorical("e_f", to_doubles(domains.resize_finish_epoch));
  space.add_categorical("res_s", to_doubles(domains.res_start));
  space.add_categorical("res_f", to_doubles(domains.res_finish));
  return space;
}

TrainingScheme ProxySearch::scheme_from_config(const Configuration& config) {
  TrainingScheme s;
  s.batch_size = config.get_int("b");
  s.total_epochs = config.get_int("e_t");
  s.resize_start_epoch = config.get_int("e_s");
  s.resize_finish_epoch = config.get_int("e_f");
  s.res_start = config.get_int("res_s");
  s.res_finish = config.get_int("res_f");
  s.validate();
  return s;
}

bool ProxySearch::scheme_config_valid(const Configuration& config) {
  return config.get_int("e_s") <= config.get_int("e_f") &&
         config.get_int("e_f") <= config.get_int("e_t") &&
         config.get_int("res_s") <= config.get_int("res_f");
}

ProxySearchOutcome ProxySearch::run_with(const std::string& optimizer,
                                         const ProxySearchConfig& config,
                                         int budget) const {
  if (optimizer == "grid") return run_grid(config);

  Rng rng(config.seed);
  const auto models = stratified_models(config.n_models, rng);
  std::vector<double> ref_acc(models.size());
  for (std::size_t i = 0; i < models.size(); ++i)
    ref_acc[i] = sim_->train(models[i], reference_scheme(), 0).top1;

  std::vector<ProxyTrial> trials;
  // Minimized objective: -τ, with an infeasibility penalty proportional to
  // the budget overshoot so the optimizer is steered back into the region.
  HpoObjective objective = [&](const Configuration& c) {
    if (!scheme_config_valid(c)) return 10.0;  // invalid epoch/res ordering
    const TrainingScheme scheme = scheme_from_config(c);
    ProxyTrial trial =
        evaluate_scheme(scheme, models, ref_acc, config.t_spec_hours);
    trials.push_back(trial);
    double value = -trial.tau;
    if (!trial.feasible) {
      value += 1.0 + (trial.cost_hours - config.t_spec_hours) /
                         config.t_spec_hours;
    }
    return value;
  };

  const ConfigSpace space = scheme_space(config.domains);
  Rng opt_rng(hash_combine(config.seed, 0xBEEF));
  if (optimizer == "random") {
    RandomSearchHpo::run(space, objective, budget, opt_rng);
  } else if (optimizer == "smac") {
    SmacLite::Options options;
    options.n_trials = budget;
    options.filter = scheme_config_valid;
    SmacLite::run(space, objective, options, opt_rng);
  } else {
    throw Error("ProxySearch::run_with: unknown optimizer '" + optimizer +
                "'");
  }
  return finalize(std::move(trials), models);
}

}  // namespace anb
