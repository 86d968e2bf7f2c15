#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/surrogate/binned_matrix.hpp"
#include "anb/surrogate/flat_forest.hpp"
#include "anb/surrogate/surrogate.hpp"
#include "anb/surrogate/tree.hpp"

namespace anb {

/// LightGBM-style hyperparameters: histogram split finding with *leaf-wise*
/// (best-first) growth bounded by a leaf count rather than a depth.
struct HistGbdtParams {
  // Like GbdtParams, defaults favor many small trees (8 leaves ~ depth 3).
  int n_estimators = 1500;
  double learning_rate = 0.05;
  int max_leaves = 8;
  int max_bins = 64;
  double lambda = 1.0;
  double min_child_weight = 1.0;
  double min_split_gain = 1e-12;
  double subsample = 1.0;  ///< per-tree row bagging fraction
  double colsample = 1.0;  ///< per-tree feature fraction
};

/// Histogram-based gradient boosting with leaf-wise growth (the paper's
/// "LGB" surrogate). Structurally different from Gbdt: feature values are
/// bucketed into at most `max_bins` quantile bins once per dataset (see
/// BinnedMatrix), split search scans bin histograms (with the
/// sibling-subtraction trick), and trees grow best-first until `max_leaves`.
///
/// Training is parallel and exactly deterministic: histogram construction
/// and split scanning parallelize across *features* (each histogram cell
/// receives its contributions in serial row order, so results are
/// bit-identical at any thread count). The gradient and prediction
/// updates run inline: each fitted row takes its leaf's value, so they are
/// too little work to start threads for.
class HistGbdt final : public Surrogate {
 public:
  explicit HistGbdt(HistGbdtParams params = {});

  void fit(const Dataset& train, Rng& rng) override;
  void fit(const Dataset& train, TrainContext& ctx, Rng& rng) override;

  /// Fit against a pre-built bin matrix (must be built from `train` with
  /// this model's max_bins). The two-argument overloads route here.
  void fit(const Dataset& train, const BinnedMatrix& binned, Rng& rng);
  void predict_batch(std::span<const double> rows, std::size_t num_features,
                     std::span<double> out) const override;
  std::string name() const override { return "lgb"; }
  Json to_json(bin::Writer* sections = nullptr) const override;
  static std::unique_ptr<HistGbdt> from_json(
      const Json& j, const bin::Reader* sections = nullptr);

  const HistGbdtParams& params() const { return params_; }
  std::size_t num_trees() const { return flat_.num_trees(); }
  double base_score() const { return base_score_; }
  /// The flattened trees every prediction descends.
  const FlatForest& forest() const { return flat_; }

 private:
  HistGbdtParams params_;
  double base_score_ = 0.0;
  FlatForest flat_;  ///< the only tree store, written by both formats
};

}  // namespace anb
