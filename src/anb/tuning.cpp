#include "anb/anb/tuning.hpp"

#include <algorithm>

#include "anb/hpo/optimizers.hpp"
#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/surrogate/train_context.hpp"
#include "anb/util/error.hpp"
#include "anb/util/metrics.hpp"

namespace anb {

const char* surrogate_kind_name(SurrogateKind kind) {
  switch (kind) {
    case SurrogateKind::kXgb: return "xgb";
    case SurrogateKind::kLgb: return "lgb";
    case SurrogateKind::kRf: return "rf";
    case SurrogateKind::kEpsSvr: return "esvr";
    case SurrogateKind::kNuSvr: return "nusvr";
  }
  return "unknown";
}

const char* surrogate_kind_label(SurrogateKind kind) {
  switch (kind) {
    case SurrogateKind::kXgb: return "XGB";
    case SurrogateKind::kLgb: return "LGB";
    case SurrogateKind::kRf: return "RF";
    case SurrogateKind::kEpsSvr: return "eps-SVR";
    case SurrogateKind::kNuSvr: return "nu-SVR";
  }
  return "unknown";
}

std::vector<SurrogateKind> all_surrogate_kinds() {
  return {SurrogateKind::kXgb, SurrogateKind::kLgb, SurrogateKind::kRf,
          SurrogateKind::kEpsSvr, SurrogateKind::kNuSvr};
}

ConfigSpace surrogate_config_space(SurrogateKind kind) {
  ConfigSpace space;
  switch (kind) {
    case SurrogateKind::kXgb:
      space.add_int("n_estimators", 300, 2000);
      space.add_float("learning_rate", 0.01, 0.15, /*log_scale=*/true);
      space.add_int("max_depth", 2, 6);
      space.add_float("lambda", 0.1, 10.0, /*log_scale=*/true);
      space.add_float("min_child_weight", 0.5, 8.0, /*log_scale=*/true);
      space.add_float("subsample", 0.6, 1.0);
      space.add_float("colsample", 0.5, 1.0);
      break;
    case SurrogateKind::kLgb:
      space.add_int("n_estimators", 300, 2000);
      space.add_float("learning_rate", 0.01, 0.15, /*log_scale=*/true);
      space.add_int("max_leaves", 4, 31);
      space.add_int("max_bins", 16, 64);
      space.add_float("lambda", 0.1, 10.0, /*log_scale=*/true);
      space.add_float("min_child_weight", 0.5, 8.0, /*log_scale=*/true);
      space.add_float("subsample", 0.6, 1.0);
      space.add_float("colsample", 0.5, 1.0);
      break;
    case SurrogateKind::kRf:
      space.add_int("n_trees", 100, 400);
      space.add_int("max_depth", 8, 20);
      space.add_int("min_samples_leaf", 1, 8);
      space.add_float("max_features_frac", 0.2, 1.0);
      space.add_float("bootstrap_frac", 0.6, 1.0);
      break;
    case SurrogateKind::kEpsSvr:
      space.add_float("c", 0.1, 100.0, /*log_scale=*/true);
      space.add_float("epsilon", 0.005, 0.3, /*log_scale=*/true);
      space.add_float("gamma", 0.005, 0.5, /*log_scale=*/true);
      break;
    case SurrogateKind::kNuSvr:
      space.add_float("c", 0.1, 100.0, /*log_scale=*/true);
      space.add_float("nu", 0.1, 0.9);
      space.add_float("gamma", 0.005, 0.5, /*log_scale=*/true);
      break;
  }
  return space;
}

std::unique_ptr<Surrogate> make_surrogate(SurrogateKind kind,
                                          const Configuration& config) {
  switch (kind) {
    case SurrogateKind::kXgb: {
      GbdtParams p;
      p.n_estimators = config.get_int("n_estimators");
      p.learning_rate = config.get("learning_rate");
      p.max_depth = config.get_int("max_depth");
      p.lambda = config.get("lambda");
      p.min_child_weight = config.get("min_child_weight");
      p.subsample = config.get("subsample");
      p.colsample = config.get("colsample");
      return std::make_unique<Gbdt>(p);
    }
    case SurrogateKind::kLgb: {
      HistGbdtParams p;
      p.n_estimators = config.get_int("n_estimators");
      p.learning_rate = config.get("learning_rate");
      p.max_leaves = config.get_int("max_leaves");
      p.max_bins = config.get_int("max_bins");
      p.lambda = config.get("lambda");
      p.min_child_weight = config.get("min_child_weight");
      p.subsample = config.get("subsample");
      p.colsample = config.get("colsample");
      return std::make_unique<HistGbdt>(p);
    }
    case SurrogateKind::kRf: {
      RandomForestParams p;
      p.n_trees = config.get_int("n_trees");
      p.max_depth = config.get_int("max_depth");
      p.min_samples_leaf = config.get_int("min_samples_leaf");
      p.max_features_frac = config.get("max_features_frac");
      p.bootstrap_frac = config.get("bootstrap_frac");
      return std::make_unique<RandomForest>(p);
    }
    case SurrogateKind::kEpsSvr: {
      SvrParams p;
      p.kind = SvrKind::kEpsilon;
      p.c = config.get("c");
      p.epsilon = config.get("epsilon");
      p.gamma = config.get("gamma");
      return std::make_unique<Svr>(p);
    }
    case SurrogateKind::kNuSvr: {
      SvrParams p;
      p.kind = SvrKind::kNu;
      p.c = config.get("c");
      p.nu = config.get("nu");
      p.gamma = config.get("gamma");
      return std::make_unique<Svr>(p);
    }
  }
  throw Error("make_surrogate: unknown kind");
}

std::unique_ptr<Surrogate> make_default_surrogate(SurrogateKind kind) {
  switch (kind) {
    case SurrogateKind::kXgb: return std::make_unique<Gbdt>();
    case SurrogateKind::kLgb: return std::make_unique<HistGbdt>();
    case SurrogateKind::kRf: return std::make_unique<RandomForest>();
    case SurrogateKind::kEpsSvr: {
      SvrParams p;
      p.kind = SvrKind::kEpsilon;
      return std::make_unique<Svr>(p);
    }
    case SurrogateKind::kNuSvr: {
      SvrParams p;
      p.kind = SvrKind::kNu;
      return std::make_unique<Svr>(p);
    }
  }
  throw Error("make_default_surrogate: unknown kind");
}

TunedSurrogate tune_surrogate(SurrogateKind kind, const Dataset& train,
                              const Dataset& val, const TuneOptions& options) {
  ANB_CHECK(train.size() >= 8 && val.size() >= 2,
            "tune_surrogate: train/val too small");
  ANB_CHECK(options.n_trials >= 1, "tune_surrogate: n_trials must be >= 1");
  ANB_SPAN("anb.tune");
  obs::counter("anb.tune.count").add(1);
  obs::counter("anb.tune.trials")
      .add(static_cast<std::uint64_t>(options.n_trials));

  // Optional row cap for the tuning loop (the final refit is full-size).
  const Dataset* tune_train = &train;
  Dataset capped(train.num_features());
  if (options.tuning_subsample > 0 &&
      train.size() > static_cast<std::size_t>(options.tuning_subsample)) {
    Rng sub_rng(hash_combine(options.seed, 0x5AB5));
    const auto idx = sub_rng.sample_indices(
        train.size(), static_cast<std::size_t>(options.tuning_subsample));
    capped = train.subset(idx);
    tune_train = &capped;
  }

  const ConfigSpace space = surrogate_config_space(kind);
  // Shared per-dataset training structures (sorted columns, bin matrices
  // keyed by max_bins) built once and reused across all trials. The context
  // is internally synchronized and each trial derives its own rng from the
  // config, so the objective is pure and safe to evaluate concurrently.
  TrainContext tune_ctx(*tune_train);
  HpoObjective objective = [&](const Configuration& config) {
    auto model = make_surrogate(kind, config);
    Rng fit_rng(hash_combine(options.seed, config.to_string().size() * 31 +
                                               0xF17));
    try {
      model->fit(*tune_train, tune_ctx, fit_rng);
    } catch (const Error&) {
      return 1e6;  // degenerate config (e.g. ε tube swallowing all points)
    }
    // RMSE alone: evaluate() also computes Kendall τ, which throws when a
    // degenerate config predicts one constant on a small split.
    return rmse(val.targets(), model->predict_all(val));
  };

  SmacLite::Options smac;
  smac.n_trials = options.n_trials;
  smac.n_init = std::min(8, options.n_trials);
  smac.parallel_objective = true;
  Rng rng(options.seed);
  const HpoResult result = SmacLite::run(space, objective, smac, rng);

  TunedSurrogate out;
  out.config = result.best;
  out.model = make_surrogate(kind, result.best);
  Rng refit_rng(hash_combine(options.seed, 0xF1E1D));
  out.model->fit(train, refit_rng);
  out.val_metrics = out.model->evaluate(val);
  return out;
}

}  // namespace anb
