// Differential tests for the batched prediction engine: for every
// surrogate family, predict_batch / predict_matrix over a row matrix must
// reproduce the scalar per-row predict() BIT FOR BIT — not approximately.
// predict() is a one-row batch, so the tree families and ensembles of
// them are held to an independent per-tree walk (tree_reference.hpp).
// This is the exactness guarantee the batched query engine is built on
// (see DESIGN.md "Batched prediction & the query cache"): trees make the
// same comparisons and accumulate leaf values in the same order, SVR's
// blocked kernel expansion keeps each row's term order, and ensembles sum
// members in member order.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/util/error.hpp"
#include "anb/util/rng.hpp"
#include "tree_reference.hpp"

namespace anb {
namespace {

constexpr std::size_t kNumFeatures = 7;

Dataset make_dataset(int n, std::uint64_t seed) {
  Dataset ds(kNumFeatures);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(kNumFeatures);
    for (auto& v : x) v = rng.uniform();
    // Mix of additive terms, an interaction, and a discrete feature so
    // fitted trees are non-trivial and unbalanced.
    x[6] = static_cast<double>(rng.uniform_index(4));
    const double y =
        3.0 * x[0] - 2.0 * x[1] + 4.0 * x[2] * x[3] + 0.5 * x[6] +
        0.1 * rng.normal();
    ds.add(x, y);
  }
  return ds;
}

/// Row-major query matrix of `n` random rows.
std::vector<double> make_rows(std::size_t n, std::uint64_t seed) {
  std::vector<double> rows(n * kNumFeatures);
  Rng rng(seed);
  for (auto& v : rows) v = rng.uniform();
  return rows;
}

/// The differential check: scalar predict(), batch and parallel-matrix
/// outputs must all equal the per-tree reference exactly (EXPECT_EQ on
/// doubles — bit-level for non-NaN).
void expect_batch_matches_scalar(const Surrogate& model, std::size_t n,
                                 std::uint64_t seed) {
  const std::vector<double> rows = make_rows(n, seed);
  std::vector<double> ref(n), scalar(n), batch(n), matrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto x =
        std::span<const double>(rows).subspan(i * kNumFeatures, kNumFeatures);
    ref[i] = per_tree_predict(model, x);
    scalar[i] = model.predict(x);
  }
  model.predict_batch(rows, kNumFeatures, batch);
  model.predict_matrix(rows, kNumFeatures, matrix);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ref[i], scalar[i]) << model.name() << " row " << i;
    EXPECT_EQ(ref[i], batch[i]) << model.name() << " row " << i;
    EXPECT_EQ(ref[i], matrix[i]) << model.name() << " row " << i;
  }
}

/// Batch sizes covering the interesting regimes: empty, single row, one
/// partial interleave group, one full row block, larger than any thread
/// count and not a multiple of the 64-row block or the 4-row group.
const std::size_t kBatchSizes[] = {0, 1, 3, 64, 257};

template <typename Model>
void run_differential(Model& model, std::uint64_t fit_seed) {
  const Dataset train = make_dataset(400, fit_seed);
  Rng rng(fit_seed + 1);
  model.fit(train, rng);
  for (const std::size_t n : kBatchSizes)
    expect_batch_matches_scalar(model, n, 0xABC + n);
}

TEST(PredictBatchTest, GbdtBitIdentical) {
  GbdtParams p;
  p.n_estimators = 60;
  p.max_depth = 4;
  Gbdt model(p);
  run_differential(model, 11);
}

TEST(PredictBatchTest, HistGbdtBitIdentical) {
  HistGbdtParams p;
  p.n_estimators = 60;
  HistGbdt model(p);
  run_differential(model, 12);
}

TEST(PredictBatchTest, RandomForestBitIdentical) {
  RandomForestParams p;
  p.n_trees = 30;
  RandomForest model(p);
  run_differential(model, 13);
}

TEST(PredictBatchTest, EpsilonSvrBitIdentical) {
  SvrParams p;
  p.kind = SvrKind::kEpsilon;
  Svr model(p);
  run_differential(model, 14);
}

TEST(PredictBatchTest, NuSvrBitIdentical) {
  SvrParams p;
  p.kind = SvrKind::kNu;
  Svr model(p);
  run_differential(model, 15);
}

TEST(PredictBatchTest, EnsembleBitIdentical) {
  GbdtParams member_params;
  member_params.n_estimators = 25;
  EnsembleSurrogate model(
      [member_params] { return std::make_unique<Gbdt>(member_params); },
      /*size=*/3);
  run_differential(model, 16);
}

TEST(PredictBatchTest, SizeMismatchThrows) {
  const Dataset train = make_dataset(200, 22);
  GbdtParams p;
  p.n_estimators = 5;
  Gbdt model(p);
  Rng rng(23);
  model.fit(train, rng);
  const std::vector<double> rows = make_rows(4, 24);
  std::vector<double> out(3);  // 4 rows but room for 3 outputs
  EXPECT_THROW(model.predict_batch(rows, kNumFeatures, out), Error);
}

TEST(PredictBatchTest, UnfittedThrows) {
  Gbdt model;
  const std::vector<double> rows = make_rows(2, 25);
  std::vector<double> out(2);
  EXPECT_THROW(model.predict_batch(rows, kNumFeatures, out), Error);
}

}  // namespace
}  // namespace anb
