#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/surrogate/dataset.hpp"
#include "anb/util/json.hpp"

namespace anb::bin {
class Writer;
class Reader;
}  // namespace anb::bin

namespace anb {

class TrainContext;

/// Fit-quality metrics used throughout the paper (Tables 1 & 2).
struct FitMetrics {
  double r2 = 0.0;
  double kendall_tau = 0.0;
  double mae = 0.0;
  double rmse = 0.0;
};

/// Common interface of all predictive models used to build the benchmark
/// (XGB-style boosting, LGB-style histogram boosting, random forests,
/// ε-SVR, ν-SVR). A surrogate maps an architecture feature vector to a
/// scalar (accuracy, throughput, or latency) in microseconds — this is what
/// makes benchmark queries "zero-cost".
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Fit on a training set. May be called again to refit from scratch.
  virtual void fit(const Dataset& train, Rng& rng) = 0;

  /// Fit reusing the shared per-dataset index structures in `ctx`
  /// (ColumnIndex, BinnedMatrix). `ctx.data()` must be `train`. Produces a
  /// model bit-identical to fit(train, rng) — the context only removes
  /// redundant preprocessing, it never changes the training computation.
  /// Families without precomputable structure (SVR) fall back to the plain
  /// fit; tree families override.
  virtual void fit(const Dataset& train, TrainContext& ctx, Rng& rng);

  /// Predict one example: a one-row predict_batch. Requires fit().
  double predict(std::span<const double> x) const;

  /// Short identifier ("xgb", "lgb", "rf", "esvr", "nusvr").
  virtual std::string name() const = 0;

  /// Serialize the fitted model, hyperparameters included, in one of the
  /// two artifact formats. With `sections == nullptr` the result is the
  /// self-contained text record. Otherwise the large arrays (forest nodes,
  /// support vectors) are appended to `sections` as raw .anbb sections in
  /// their in-memory layout, and the result is the small meta record
  /// (type tag, params, section indices). Either record loads back through
  /// surrogate_from_json() into a model whose predictions are bit-identical
  /// to this one's, and re-saving it reproduces the same bytes. Throws if
  /// the model is not fitted.
  virtual Json to_json(bin::Writer* sections = nullptr) const = 0;

  /// Predict a batch of rows: `rows` is a row-major matrix of
  /// out.size() rows by `num_features` columns; prediction for row i is
  /// written to out[i]. Runs on the calling thread.
  ///
  /// The one prediction method each family implements: predict() is its
  /// one-row case. Contract: row i's output depends on row i alone, so it
  /// is bit-identical at every batch size and position
  /// (tests/surrogate/predict_batch_test.cpp holds the tree families to an
  /// independent per-tree walk). Tree ensembles descend a flattened forest
  /// and SVR expands its kernel in row blocks, both in per-row operation
  /// order.
  virtual void predict_batch(std::span<const double> rows,
                             std::size_t num_features,
                             std::span<double> out) const = 0;

  /// Batched prediction parallelized over row chunks with anb::parallel_for
  /// (chunking is a pure partition, so results are deterministic and equal
  /// to predict_batch / per-row predict). This is the serving hot path.
  void predict_matrix(std::span<const double> rows, std::size_t num_features,
                      std::span<double> out) const;

  /// Predict every row of a dataset (routed through predict_matrix).
  std::vector<double> predict_all(const Dataset& data) const;

  /// Evaluate on a labelled dataset.
  FitMetrics evaluate(const Dataset& data) const;
};

/// Reconstruct a fitted surrogate from to_json() output: a text record
/// when `sections == nullptr`, else a .anbb meta record plus the reader
/// holding its array sections (the arrays may then be zero-copy views into
/// the reader's buffer, which the surrogate keeps alive). Dispatches on the
/// "type" tag; throws anb::Error for unknown types and for any malformed or
/// corrupted payload.
std::unique_ptr<Surrogate> surrogate_from_json(
    const Json& j, const bin::Reader* sections = nullptr);

}  // namespace anb
