// Differential suite for the SIMD descent engines (DESIGN.md "SIMD
// descent"): every engine x dispatch target x batch shape must reproduce
// the scalar tree walk BIT FOR BIT — including NaN and infinity rows and
// feature values that sit exactly on a split threshold — and forcing an
// engine a forest cannot support must throw instead of degrading.
//
// Separate test binary: these tests flip process-global dispatch state
// (forced simd::Target, forced DescentPath, default thread count) that
// must not interleave with other suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "anb/obs/registry.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/flat_forest.hpp"
#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/rng.hpp"
#include "anb/util/simd.hpp"
#include "tree_reference.hpp"

namespace anb {
namespace {

/// Dispatch targets this machine can execute. kScalar always runs (and
/// exercises the ScalarIsa kernel instantiations); vector targets join
/// when the CPU probe admits them.
std::vector<simd::Target> test_targets() {
  std::vector<simd::Target> targets{simd::Target::kScalar};
  if (simd::cpu_supports(simd::Target::kAvx2))
    targets.push_back(simd::Target::kAvx2);
  if (simd::cpu_supports(simd::Target::kNeon))
    targets.push_back(simd::Target::kNeon);
  return targets;
}

/// Batch sizes crossing every kernel regime: empty, both sides of
/// kAuto's masked cutoff (1/2), below and around the interleaved walk's
/// 4-row groups (1/2/7/8/9), both sides of the masked
/// engine's one- and two-vector blocks (31/32/33, 63/64/65, 127), and the
/// 255/256/257 straddle of four 64-row blocks plus a padded tail block.
const std::size_t kBatchSizes[] = {0,  1,  2,  7,   8,   9,   31,  32,
                                   33, 63, 64, 65, 127, 255, 256, 257};

/// A leaf at tree-local index `i`: value in the split slot, self-looping.
FlatNode leaf_node(int i, double value) { return {value, 0, i, i}; }

/// Chain tree with `leaves` leaves: internal node k (k = 0..leaves-2)
/// splits feature 0 at threshold `threshold_base` + k+1 with a leaf on the
/// left and the chain continuing right — maximally unbalanced, depth =
/// leaves-1.
std::vector<FlatNode> make_chain_tree(int leaves, double leaf_base,
                                      double threshold_base = 0.0) {
  const int internal = leaves - 1;
  std::vector<FlatNode> nodes(static_cast<std::size_t>(2 * internal + 1));
  for (int k = 0; k < internal; ++k) {
    nodes[static_cast<std::size_t>(2 * k)] = {
        threshold_base + static_cast<double>(k + 1), 0, 2 * k + 1, 2 * k + 2};
    nodes[static_cast<std::size_t>(2 * k + 1)] =
        leaf_node(2 * k + 1, leaf_base + k);
  }
  nodes[static_cast<std::size_t>(2 * internal)] =
      leaf_node(2 * internal, leaf_base + internal);
  return nodes;
}

/// Depth-2 tree over two features: root splits f0 at 2.0, children split
/// f1 at 1.5 / 3.0, four distinct leaf values.
std::vector<FlatNode> make_split_tree(double bump) {
  return {FlatNode{2.0, 0, 1, 2}, FlatNode{1.5, 1, 3, 4},
          FlatNode{3.0, 1, 5, 6}, leaf_node(3, 1.0 + bump),
          leaf_node(4, 2.0 + bump), leaf_node(5, 3.0 + bump),
          leaf_node(6, 4.0 + bump)};
}

/// Complete depth-3 tree over features 0..2: the root splits f0 at 2.0,
/// the next level f1 at 1.5 / 3.0, the last f2 at 1.0 / 2.0 / 3.0 / 4.0;
/// eight distinct leaf values, scale * (0.1 * (k+1) + bump).
std::vector<FlatNode> make_depth3_tree(double scale, double bump) {
  std::vector<FlatNode> nodes = {
      FlatNode{2.0, 0, 1, 2},   FlatNode{1.5, 1, 3, 4},
      FlatNode{3.0, 1, 5, 6},   FlatNode{1.0, 2, 7, 8},
      FlatNode{2.0, 2, 9, 10},  FlatNode{3.0, 2, 11, 12},
      FlatNode{4.0, 2, 13, 14}};
  for (int k = 0; k < 8; ++k)
    nodes.push_back(leaf_node(7 + k, scale * (0.1 * (k + 1) + bump)));
  return nodes;
}

/// `num_trees` trees over features 0..2 whose 8-tree groups mix depths:
/// in group g a depth-5 chain sits in lane g % 8 and a single leaf in
/// lane (g + 3) % 8, the rest are depth-3 trees. Lanes of one lockstep
/// group settle at different depths, and across enough groups the
/// deepest tree visits every lane. Leaf magnitudes cycle over about
/// seven orders of magnitude, so summing trees out of order changes the
/// rounding.
/// Every tree has <= 8 leaves (masked-eligible).
FlatForest make_lockstep_forest(int num_trees) {
  const double kMagnitudes[] = {1.0, 3.0e4, 7.0e-3};
  std::vector<std::vector<FlatNode>> trees;
  for (int k = 0; k < num_trees; ++k) {
    const int group = k / 8;
    const int lane = k % 8;
    const double mag = kMagnitudes[k % 3];
    if (lane == group % 8)
      trees.push_back(make_chain_tree(6, mag * (0.3 + 0.017 * k)));
    else if (lane == (group + 3) % 8)
      trees.push_back({leaf_node(0, mag * (0.75 + 0.013 * k))});
    else
      trees.push_back(make_depth3_tree(mag, 0.013 * k));
  }
  return FlatForest(trees);
}

/// Scalar reference: per row, sum scale * predict_tree over trees in tree
/// order on top of `init` — the exact accumulation order accumulate()
/// promises, so EXPECT_EQ below is a bit-level check.
std::vector<double> reference(const FlatForest& forest,
                              std::span<const double> rows, std::size_t d,
                              double scale, double init) {
  const std::size_t n = d == 0 ? 0 : rows.size() / d;
  std::vector<double> out(n, init);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < forest.num_trees(); ++t)
      out[i] += scale * forest.predict_tree(t, rows.subspan(i * d, d));
  return out;
}

/// Runs accumulate() under every (target, path) combination and demands
/// bit-identity with the scalar reference.
void expect_paths_agree(const FlatForest& forest,
                        std::span<const double> rows, std::size_t d,
                        const std::vector<DescentPath>& paths,
                        const char* label) {
  constexpr double kScale = 0.5;
  constexpr double kInit = 0.25;
  const std::size_t n = rows.size() / d;
  const std::vector<double> ref = reference(forest, rows, d, kScale, kInit);
  for (const simd::Target target : test_targets()) {
    simd::ScopedTarget st(target);
    for (const DescentPath path : paths) {
      ScopedDescentPath sp(path);
      std::vector<double> out(n, kInit);
      forest.accumulate(rows, d, kScale, out);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(ref[i], out[i])
            << label << " target=" << simd::target_name(target)
            << " path=" << descent_path_name(path) << " row=" << i;
    }
  }
}

const std::vector<DescentPath> kAllPaths = {
    DescentPath::kAuto, DescentPath::kInterleaved, DescentPath::kMasked};
const std::vector<DescentPath> kUnmaskedPaths = {DescentPath::kAuto,
                                                 DescentPath::kInterleaved};

TEST(SimdDescentTest, SpecialValuesRouteIdentically) {
  std::vector<std::vector<FlatNode>> trees;
  trees.push_back(make_split_tree(0.0));
  trees.push_back(make_split_tree(0.125));
  trees.push_back(make_chain_tree(8, -2.0));
  const FlatForest forest(trees);
  ASSERT_TRUE(forest.masked_available());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Rows hitting: exact thresholds (x < t must be false), one-ulp
  // neighbours, NaN (always routes right), +/-inf, and plain values.
  const std::vector<double> rows = {
      2.0, 1.5,                                          // both exact
      std::nextafter(2.0, 0.0), std::nextafter(1.5, 9.0),  // one ulp off
      nan, 1.0,                                          // NaN on f0
      1.0, nan,                                          // NaN on f1
      nan, nan,                                          // NaN everywhere
      inf, -inf,                                         // infinities
      -inf, inf,                                         //
      0.0, 0.0,                                          // plain
      7.5, 2.25,                                         //
  };
  expect_paths_agree(forest, rows, 2, kAllPaths, "special-values");
}

TEST(SimdDescentTest, BatchShapesAndOddForests) {
  // Odd tree count (exercises the interleaved walk's single-tree
  // remainder), a single-leaf tree (no internal nodes: the masked
  // accumulator stays all-ones and must still pick leaf 0), and
  // unbalanced chains.
  std::vector<std::vector<FlatNode>> trees;
  trees.push_back(make_split_tree(0.5));
  trees.push_back({leaf_node(0, 0.75)});
  trees.push_back(make_chain_tree(5, 1.0));
  const FlatForest forest(trees);
  ASSERT_TRUE(forest.masked_available());

  Rng rng(42);
  for (const std::size_t n : kBatchSizes) {
    std::vector<double> rows(n * 2);
    for (auto& v : rows) v = rng.uniform() * 5.0;
    expect_paths_agree(forest, rows, 2, kAllPaths,
                       ("batch n=" + std::to_string(n)).c_str());
  }
}

TEST(SimdDescentTest, EightTreeLockstepGroupsAndRemainders) {
  // 8 trees: one full lockstep group; 9, 17 and 65: full groups plus a
  // one-tree remainder that walks alone (65: the chain visits all eight
  // lanes). Every batch size runs, so the 1-3 rows past a 4-row group
  // take the eight-tree walk too.
  for (const int num_trees : {8, 9, 17, 65}) {
    const FlatForest forest = make_lockstep_forest(num_trees);
    ASSERT_TRUE(forest.masked_available()) << num_trees;
    Rng rng(7 + static_cast<std::uint64_t>(num_trees));
    for (const std::size_t n : kBatchSizes) {
      std::vector<double> rows(n * 3);
      for (auto& v : rows) v = rng.uniform() * 6.0;
      expect_paths_agree(forest, rows, 3, kAllPaths,
                         ("trees=" + std::to_string(num_trees) +
                          " n=" + std::to_string(n))
                             .c_str());
    }
  }
}

TEST(SimdDescentTest, EightTreeLockstepSpecialValues) {
  // NaN (always routes right), +/-inf, values sitting exactly on a
  // threshold and one ulp off it, on batches that never fill (n = 1, 2,
  // 3) or overflow by one (n = 5) a 4-row group.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> special = {
      2.0,  1.5,  1.0,                                       // on thresholds
      nan,  3.0,  4.0,                                       // NaN on f0
      inf,  -inf, nan,                                       //
      -inf, nan,  2.0,                                       //
      std::nextafter(2.0, 0.0), std::nextafter(3.0, 9.0), inf,  // one ulp
  };
  for (const int num_trees : {8, 9, 17, 65}) {
    const FlatForest forest = make_lockstep_forest(num_trees);
    for (const std::size_t n : {1u, 2u, 3u, 5u}) {
      const std::span<const double> rows(special.data(), n * 3);
      expect_paths_agree(forest, rows, 3, kAllPaths,
                         ("special trees=" + std::to_string(num_trees) +
                          " n=" + std::to_string(n))
                             .c_str());
    }
  }
}

/// A forest the masked engine cannot represent: masked_available() is
/// false, a forced kMasked throws, and auto and interleaved still agree
/// with the scalar walk.
void expect_masked_rejected(const FlatForest& forest,
                            std::span<const double> rows, const char* label) {
  EXPECT_FALSE(forest.masked_available()) << label;
  expect_paths_agree(forest, rows, 1, kUnmaskedPaths, label);
  ScopedDescentPath sp(DescentPath::kMasked);
  std::vector<double> out(rows.size(), 0.0);
  EXPECT_THROW(forest.accumulate(rows, 1, 1.0, out), Error) << label;
}

/// Chain trees of at most 8 leaves over feature 0 whose thresholds are
/// 1, 2, ..., `count` — `count` distinct thresholds, every tree within
/// the leaf budget.
FlatForest make_threshold_forest(int count) {
  std::vector<std::vector<FlatNode>> trees;
  for (int base = 0; base < count; base += 7) {
    const int internal = std::min(7, count - base);
    trees.push_back(make_chain_tree(internal + 1, 0.01 * base, base));
  }
  return FlatForest(trees);
}

TEST(SimdDescentTest, NineLeavesDisableMasked) {
  std::vector<std::vector<FlatNode>> trees;
  trees.push_back(make_chain_tree(9, 0.0));
  std::vector<double> rows(16);
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<double>(i % 10);
  expect_masked_rejected(FlatForest(trees), rows, "nine-leaves");
}

TEST(SimdDescentTest, ThresholdBudgetIs255PerFeature) {
  // The uint8 row code orders x against every threshold of its feature,
  // with code 255 reserved for NaN: 255 distinct thresholds fit, 256 do
  // not. Rows sit on, between and past every threshold.
  std::vector<double> rows;
  for (int i = 0; i <= 2 * 260; ++i) rows.push_back(0.5 * i);
  rows.push_back(std::numeric_limits<double>::quiet_NaN());
  rows.push_back(std::numeric_limits<double>::infinity());
  rows.push_back(-std::numeric_limits<double>::infinity());

  const FlatForest fits = make_threshold_forest(255);
  ASSERT_TRUE(fits.masked_available());
  expect_paths_agree(fits, rows, 1, kAllPaths, "255-thresholds");

  expect_masked_rejected(make_threshold_forest(256), rows, "256-thresholds");
}

// ---------------------------------------------------------------------------
// Fitted families end to end: the per-tree reference vs predict_batch /
// predict_matrix under every engine. Discrete feature values keep the
// per-feature threshold count small, so only the leaf count decides
// masked eligibility for the families below.
// ---------------------------------------------------------------------------

constexpr std::size_t kNumFeatures = 7;

Dataset make_family_dataset(int n, std::uint64_t seed) {
  Dataset ds(kNumFeatures);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(kNumFeatures);
    for (auto& v : x) v = static_cast<double>(rng.uniform_index(6));
    const double y = 3.0 * x[0] - 2.0 * x[1] + x[2] * x[3] + 0.5 * x[6] +
                     0.1 * rng.normal();
    ds.add(x, y);
  }
  return ds;
}

std::vector<double> make_family_rows(std::size_t n, std::uint64_t seed) {
  std::vector<double> rows(n * kNumFeatures);
  Rng rng(seed);
  for (auto& v : rows) v = static_cast<double>(rng.uniform_index(6));
  return rows;
}

/// Per-tree reference for every row (tree_reference.hpp).
std::vector<double> family_reference(const Surrogate& model,
                                     std::span<const double> rows) {
  std::vector<double> ref(rows.size() / kNumFeatures);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ref[i] = per_tree_predict(
        model, rows.subspan(i * kNumFeatures, kNumFeatures));
  return ref;
}

void run_family(const Surrogate& model,
                const std::vector<DescentPath>& paths) {
  for (const std::size_t n : kBatchSizes) {
    const std::vector<double> rows = make_family_rows(n, 0xF00 + n);
    const std::vector<double> scalar = family_reference(model, rows);
    for (const simd::Target target : test_targets()) {
      simd::ScopedTarget st(target);
      for (const DescentPath path : paths) {
        ScopedDescentPath sp(path);
        std::vector<double> batch(n);
        model.predict_batch(rows, kNumFeatures, batch);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(scalar[i], batch[i])
              << model.name() << " target=" << simd::target_name(target)
              << " path=" << descent_path_name(path) << " n=" << n
              << " row=" << i;
      }
    }
  }
  // Parallel predict_matrix sweep at pinned thread counts: per-chunk
  // dispatch must keep bit-identity whatever the chunking.
  const std::size_t n = 257;
  const std::vector<double> rows = make_family_rows(n, 0xBEE);
  const std::vector<double> scalar = family_reference(model, rows);
  for (const unsigned threads : {1u, 2u, 0u}) {
    set_default_num_threads(threads);
    for (const DescentPath path : paths) {
      ScopedDescentPath sp(path);
      std::vector<double> matrix(n);
      model.predict_matrix(rows, kNumFeatures, matrix);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(scalar[i], matrix[i])
            << model.name() << " threads=" << threads
            << " path=" << descent_path_name(path) << " row=" << i;
    }
  }
  set_default_num_threads(0);
}

TEST(SimdDescentTest, HistGbdtFamily) {
  HistGbdtParams p;
  p.n_estimators = 40;
  HistGbdt model(p);  // max_leaves 8 -> masked-eligible by construction
  const Dataset train = make_family_dataset(400, 21);
  Rng rng(22);
  model.fit(train, rng);
  run_family(model, kAllPaths);
}

TEST(SimdDescentTest, GbdtFamily) {
  GbdtParams p;
  p.n_estimators = 40;
  p.max_depth = 3;  // <= 8 leaves -> masked-eligible
  Gbdt model(p);
  const Dataset train = make_family_dataset(400, 31);
  Rng rng(32);
  model.fit(train, rng);
  run_family(model, kAllPaths);
}

TEST(SimdDescentTest, RandomForestFamily) {
  RandomForestParams p;
  p.n_trees = 15;  // default depth 14: typically far more than 8 leaves
  RandomForest model(p);
  const Dataset train = make_family_dataset(400, 41);
  Rng rng(42);
  model.fit(train, rng);
  // Masked eligibility depends on the fitted shapes, so the sweep forces
  // no engine that might be unavailable.
  run_family(model, kUnmaskedPaths);
}

// ---------------------------------------------------------------------------
// Observability: SIMD-path batches report their row count and dispatch
// target; the counter is exact, so it stays thread-count-invariant.
// ---------------------------------------------------------------------------

TEST(SimdDescentTest, ObsCountsSimdRowsAndTarget) {
  HistGbdtParams p;
  p.n_estimators = 10;
  HistGbdt model(p);
  const Dataset train = make_family_dataset(200, 51);
  Rng rng(52);
  model.fit(train, rng);
  const std::vector<double> rows = make_family_rows(64, 0xC0);
  std::vector<double> out(64);

  obs::reset_metrics();
  {
    ScopedDescentPath sp(DescentPath::kMasked);
    model.predict_batch(rows, kNumFeatures, out);
  }
  {
    // Interleaved batches must NOT count as SIMD rows.
    ScopedDescentPath sp(DescentPath::kInterleaved);
    model.predict_batch(rows, kNumFeatures, out);
  }
  std::uint64_t simd_rows = 0;
  double dispatch = -1.0;
  for (const obs::MetricValue& m : obs::snapshot_metrics()) {
    if (m.name == "anb.query.simd.rows") simd_rows = m.value;
    if (m.name == "anb.query.simd.dispatch_target")
      dispatch = m.gauge_value;
  }
  EXPECT_EQ(simd_rows, 64u);
  EXPECT_EQ(dispatch,
            static_cast<double>(static_cast<int>(simd::active_target())));
}

/// anb.query.simd.rows after running `body` on freshly reset metrics.
template <class Body>
std::uint64_t simd_rows_of(Body body) {
  obs::reset_metrics();
  body();
  for (const obs::MetricValue& m : obs::snapshot_metrics())
    if (m.name == "anb.query.simd.rows") return m.value;
  return 0;
}

TEST(SimdDescentTest, AutoSendsSingleRowsToInterleavedWalk) {
  // The batch-size cutoff: on a vector target, auto sends a masked-
  // eligible forest's batches of kMaskedMinRows rows or more through the
  // masked engine, and a single row — a scalar Gbdt::predict included —
  // through the interleaved walk's eight-tree lockstep, which counts no
  // SIMD rows. A forest the masks cannot represent (a 9-leaf tree, like
  // a deep RandomForest), and scalar dispatch, stay on the interleaved
  // walk at every batch size.
  ASSERT_EQ(kMaskedMinRows, 2u);
  std::vector<std::vector<FlatNode>> deep;
  deep.push_back(make_chain_tree(9, 0.0));
  const FlatForest nine_leaves(deep);
  ASSERT_FALSE(nine_leaves.masked_available());

  GbdtParams p;
  p.n_estimators = 10;
  p.max_depth = 3;
  Gbdt gbdt(p);
  Rng rng(62);
  gbdt.fit(make_family_dataset(200, 61), rng);
  ASSERT_TRUE(gbdt.forest().masked_available());
  const std::vector<double> x = make_family_rows(1, 0xD0);
  const std::vector<double> rows2 = make_family_rows(kMaskedMinRows, 0xD2);
  const std::vector<double> rows40 = make_family_rows(40, 0xD1);
  std::vector<double> out1(1);
  std::vector<double> out2(kMaskedMinRows);
  std::vector<double> out40(40);

  for (const simd::Target target : test_targets()) {
    simd::ScopedTarget st(target);
    const std::uint64_t vector_rows = target == simd::Target::kScalar ? 0 : 1;
    EXPECT_EQ(simd_rows_of([&] { (void)gbdt.predict(x); }), 0u)
        << simd::target_name(target);
    EXPECT_EQ(simd_rows_of([&] {
                gbdt.predict_batch(x, kNumFeatures, out1);
              }),
              0u)
        << simd::target_name(target);
    EXPECT_EQ(simd_rows_of([&] {
                gbdt.predict_batch(rows2, kNumFeatures, out2);
              }),
              kMaskedMinRows * vector_rows)
        << simd::target_name(target);
    EXPECT_EQ(simd_rows_of([&] {
                gbdt.predict_batch(rows40, kNumFeatures, out40);
              }),
              40 * vector_rows)
        << simd::target_name(target);

    const std::vector<double> col = {3.0};
    std::vector<double> out(1, 0.0);
    EXPECT_EQ(simd_rows_of([&] { nine_leaves.accumulate(col, 1, 1.0, out); }),
              0u)
        << simd::target_name(target);
    const std::vector<double> col40(40, 5.0);
    EXPECT_EQ(simd_rows_of([&] {
                nine_leaves.accumulate(col40, 1, 1.0, out40);
              }),
              0u)
        << simd::target_name(target);
  }
}

}  // namespace
}  // namespace anb
