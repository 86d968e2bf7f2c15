#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/surrogate/flat_forest.hpp"
#include "anb/surrogate/surrogate.hpp"
#include "anb/surrogate/tree.hpp"

namespace anb {

/// Random-forest regression hyperparameters.
struct RandomForestParams {
  int n_trees = 200;
  int max_depth = 14;
  double min_samples_leaf = 2.0;
  /// Features considered per split as a fraction of the total; <= 0 uses the
  /// sqrt(d) heuristic.
  double max_features_frac = -1.0;
  /// Bootstrap sample size as a fraction of the training set.
  double bootstrap_frac = 1.0;
};

/// Bagged variance-reduction trees (one of the paper's candidate surrogates;
/// Table 1 shows it trailing the boosting methods on ANB-Acc, a gap this
/// implementation reproduces).
///
/// Trees are fitted in parallel. The caller's `rng` is drawn from exactly
/// once to derive a forest seed; tree t then runs on its own stream seeded
/// with hash_combine(forest_seed, t), so the fitted forest is bit-identical
/// for any thread count (and independent of scheduling order).
class RandomForest final : public Surrogate {
 public:
  explicit RandomForest(RandomForestParams params = {});

  void fit(const Dataset& train, Rng& rng) override;
  void fit(const Dataset& train, TrainContext& ctx, Rng& rng) override;
  void predict_batch(std::span<const double> rows, std::size_t num_features,
                     std::span<double> out) const override;

  /// Ensemble mean and standard deviation across trees — the predictive
  /// uncertainty SMAC-style Bayesian optimization needs for its acquisition
  /// function.
  std::pair<double, double> predict_mean_std(std::span<const double> x) const;
  std::string name() const override { return "rf"; }
  Json to_json(bin::Writer* sections = nullptr) const override;
  static std::unique_ptr<RandomForest> from_json(
      const Json& j, const bin::Reader* sections = nullptr);

  const RandomForestParams& params() const { return params_; }
  std::size_t num_trees() const { return flat_.num_trees(); }

 private:
  void fit_impl(const Dataset& train, const ColumnIndex& columns, Rng& rng);

  RandomForestParams params_;
  FlatForest flat_;  ///< the only tree store, written by both formats
};

}  // namespace anb
