#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "anb/surrogate/flat_forest.hpp"
#include "anb/surrogate/surrogate.hpp"
#include "anb/surrogate/tree.hpp"

namespace anb {

/// XGBoost-style gradient-boosting hyperparameters (squared-error objective,
/// second-order splits, exact greedy).
struct GbdtParams {
  // Defaults favor many shallow trees: one-hot architecture encodings have
  // largely additive structure plus sparse motif interactions, for which
  // depth-3 ensembles generalize markedly better than deep trees.
  int n_estimators = 1200;
  double learning_rate = 0.05;
  int max_depth = 3;
  double lambda = 1.0;            ///< L2 on leaf values
  double gamma = 0.0;             ///< min split gain
  double min_child_weight = 1.0;
  double subsample = 1.0;         ///< per-tree row subsample (w/o replacement)
  double colsample = 1.0;         ///< per-node feature subsample fraction
};

/// XGBoost-style gradient boosted trees — the paper's best-performing
/// surrogate family (Table 1: R²=0.984, τ=0.922 on ANB-Acc; Table 2 uses it
/// for all device datasets).
///
/// Boosting is inherently sequential, so trees build one at a time with one
/// TreeBuilder per fit; the element-wise gradient loop runs inline (a few
/// microseconds per round, less than starting threads would cost),
/// predictions update by the leaf index the builder reports, and the
/// context overload reuses a shared ColumnIndex.
class Gbdt final : public Surrogate {
 public:
  explicit Gbdt(GbdtParams params = {});

  void fit(const Dataset& train, Rng& rng) override;
  void fit(const Dataset& train, TrainContext& ctx, Rng& rng) override;
  void predict_batch(std::span<const double> rows, std::size_t num_features,
                     std::span<double> out) const override;
  std::string name() const override { return "xgb"; }
  Json to_json(bin::Writer* sections = nullptr) const override;
  static std::unique_ptr<Gbdt> from_json(
      const Json& j, const bin::Reader* sections = nullptr);

  const GbdtParams& params() const { return params_; }
  std::size_t num_trees() const { return flat_.num_trees(); }
  double base_score() const { return base_score_; }
  /// The flattened trees every prediction descends.
  const FlatForest& forest() const { return flat_; }

 private:
  void fit_impl(const Dataset& train, const ColumnIndex& columns, Rng& rng);

  GbdtParams params_;
  double base_score_ = 0.0;
  FlatForest flat_;  ///< the only tree store, written by both formats
};

}  // namespace anb
