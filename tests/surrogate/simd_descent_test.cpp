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
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <latch>
#include <limits>
#include <span>
#include <string>
#include <thread>
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
#include "descent_kernels.hpp"
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
  if (simd::cpu_supports(simd::Target::kAvx512))
    targets.push_back(simd::Target::kAvx512);
  if (simd::cpu_supports(simd::Target::kNeon))
    targets.push_back(simd::Target::kNeon);
  return targets;
}

/// Batch sizes crossing every kernel regime: empty, both sides of
/// kAuto's table cutoff (15/16) and of its masked cutoff on forests
/// without a table (1/2), below and around the interleaved walk's 4-row
/// groups (1/2/7/8/9), both sides of the masked
/// engine's one- and two-vector blocks (31/32/33, 63/64/65, 127), and the
/// 255/256/257 straddle of four 64-row blocks plus a padded tail block.
const std::size_t kBatchSizes[] = {0,  1,  2,   7,   8,   9,   15,  16, 31,
                                   32, 33, 63, 64, 65, 127, 255, 256, 257};

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
    DescentPath::kAuto, DescentPath::kInterleaved, DescentPath::kMasked,
    DescentPath::kTable};
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

/// A forest neither vector engine can represent: masked_available() and
/// table_available() are false, a forced kMasked or kTable throws, and
/// auto and interleaved still agree with the scalar walk.
void expect_masked_rejected(const FlatForest& forest,
                            std::span<const double> rows, const char* label) {
  EXPECT_FALSE(forest.masked_available()) << label;
  EXPECT_FALSE(forest.table_available()) << label;
  expect_paths_agree(forest, rows, 1, kUnmaskedPaths, label);
  for (const DescentPath path : {DescentPath::kMasked, DescentPath::kTable}) {
    ScopedDescentPath sp(path);
    std::vector<double> out(rows.size(), 0.0);
    EXPECT_THROW(forest.accumulate(rows, 1, 1.0, out), Error)
        << label << " path=" << descent_path_name(path);
  }
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
// The table engine: one leaf-set row per (feature, threshold code), the
// rows a query row selects ANDed together 32 trees per vector op.
// ---------------------------------------------------------------------------

/// `tree` with every internal node moved to feature `f`.
std::vector<FlatNode> on_feature(std::vector<FlatNode> tree, int f) {
  for (std::size_t i = 0; i < tree.size(); ++i)
    if (tree[i].left != static_cast<std::int32_t>(i)) tree[i].feature = f;
  return tree;
}

/// `num_trees` trees over features 0..3 mixing every shape the table must
/// encode: stumps (no table byte but 0xFF), chains that put seven
/// thresholds of one feature in one tree (codes above 1 take the prefix
/// AND), and depth-3 trees whose last level splits feature 2 four ways.
/// The thresholds overlap across trees, so one code selects different
/// prefixes in different trees.
FlatForest make_table_forest(int num_trees) {
  std::vector<std::vector<FlatNode>> trees;
  for (int k = 0; k < num_trees; ++k) {
    const double mag = k % 2 == 0 ? 1.0 : 3.0e4;
    switch (k % 4) {
      case 0:
        trees.push_back({leaf_node(0, mag * (0.5 + 0.01 * k))});
        break;
      case 1:
        trees.push_back(make_chain_tree(8, mag * 0.1 * k, 0.5 * (k % 3)));
        break;
      case 2:
        trees.push_back(make_depth3_tree(mag, 0.01 * k));
        break;
      default:
        trees.push_back(on_feature(make_chain_tree(5, 0.2 * k, k % 5), 3));
        break;
    }
  }
  return FlatForest(trees);
}

TEST(SimdDescentTest, TableEngineMatchesTheWalkUpToTheCutoff) {
  // Every batch size auto can send to the table engine, and one past it;
  // tree counts off multiples of 32 leave the last table slice partly
  // padding. Rows mix plain values, every threshold exactly (x < t must
  // be false), NaN (the last code of its feature), +/-inf, and values
  // past every threshold.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double kSpecial[] = {nan, inf, -inf, 0.5, 1.0, 1.5, 2.0, 3.0,
                             4.0, 5.5, 7.0, 9.0, 100.0};
  for (const int num_trees : {1, 4, 31, 33, 65, 100}) {
    const FlatForest forest = make_table_forest(num_trees);
    ASSERT_TRUE(forest.table_available()) << num_trees;
    Rng rng(90 + static_cast<std::uint64_t>(num_trees));
    for (std::size_t n = 1; n <= kTableMaxRows + 1; ++n) {
      std::vector<double> rows(n * 4);
      for (auto& v : rows)
        v = rng.uniform() < 0.5
                ? kSpecial[rng.uniform_index(std::size(kSpecial))]
                : rng.uniform() * 9.0;
      expect_paths_agree(forest, rows, 4,
                         {DescentPath::kAuto, DescentPath::kTable},
                         ("table trees=" + std::to_string(num_trees) +
                          " n=" + std::to_string(n))
                             .c_str());
    }
  }
}

TEST(SimdDescentTest, AllStumpForestRunsTheTableEngine) {
  // No internal node anywhere: the table has no rows, every tree's leaf
  // set stays 0xFF, and leaf 0 is every tree's exit.
  std::vector<std::vector<FlatNode>> trees;
  for (int k = 0; k < 40; ++k) trees.push_back({leaf_node(0, 0.25 * k)});
  const FlatForest forest(trees);
  ASSERT_TRUE(forest.table_available());
  const std::vector<double> rows = {
      1.0, std::numeric_limits<double>::quiet_NaN(), -3.0};
  expect_paths_agree(forest, rows, 1, kAllPaths, "stumps");
}

TEST(SimdDescentTest, OverBudgetTableKeepsTodaysEngines) {
  // Features 0..F-1 each carry 255 thresholds in chains of seven: the
  // table needs (trees rounded up to 32) x 255F bytes. The smallest F
  // past kTableMaxBytes has no table, yet stays masked-eligible: auto
  // runs the interleaved walk on one row and the masked engine from
  // kMaskedMinRows rows up, and a forced kTable throws.
  const auto forest_of = [](int num_features) {
    std::vector<std::vector<FlatNode>> trees;
    for (int f = 0; f < num_features; ++f)
      for (int base = 0; base < 255; base += 7)
        trees.push_back(on_feature(
            make_chain_tree(std::min(7, 255 - base) + 1, 0.01 * base, base),
            f));
    return FlatForest(trees);
  };
  const auto table_bytes = [](const FlatForest& forest, int num_features) {
    return ((forest.num_trees() + 31) / 32 * 32) * 255 *
           static_cast<std::size_t>(num_features);
  };
  int num_features = 1;
  while (table_bytes(forest_of(num_features), num_features) <= kTableMaxBytes)
    ++num_features;
  const FlatForest within = forest_of(num_features - 1);
  EXPECT_TRUE(within.table_available());
  const FlatForest over = forest_of(num_features);
  ASSERT_TRUE(over.masked_available());
  EXPECT_FALSE(over.table_available());

  const auto d = static_cast<std::size_t>(num_features);
  Rng rng(99);
  for (const std::size_t n : {1u, 2u, 9u}) {
    std::vector<double> rows(n * d);
    for (auto& v : rows) v = std::floor(rng.uniform() * 520.0) * 0.5;
    expect_paths_agree(over, rows, d,
                       {DescentPath::kAuto, DescentPath::kInterleaved,
                        DescentPath::kMasked},
                       ("over-budget n=" + std::to_string(n)).c_str());
    ScopedDescentPath sp(DescentPath::kTable);
    std::vector<double> out(n, 0.0);
    EXPECT_THROW(over.accumulate(rows, d, 1.0, out), Error) << n;
  }
  for (const simd::Target target : test_targets()) {
    if (target == simd::Target::kScalar) continue;
    simd::ScopedTarget st(target);
    EXPECT_EQ(over.auto_path(1), DescentPath::kInterleaved);
    EXPECT_EQ(over.auto_path(kMaskedMinRows), DescentPath::kMasked);
    EXPECT_EQ(over.auto_path(kTableMaxRows), DescentPath::kMasked);
  }
}

/// Eight threads make the first small-batch query of one fresh forest at
/// once: the SIMD tables and the leaf-set table are each built by one of
/// them and published to all (double-checked locks), and every answer is
/// the scalar walk's. Auto picks the table engine on a vector target;
/// scalar dispatch (ANB_SIMD=off) forces it. CI reruns this under TSan
/// with ANB_NUM_THREADS=8.
TEST(SimdDescentTest, ConcurrentFirstSmallBatchesShareOneTable) {
  const FlatForest forest = make_table_forest(97);
  ScopedDescentPath sp(simd::active_target() == simd::Target::kScalar
                           ? DescentPath::kTable
                           : DescentPath::kAuto);
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<double>> rows(kThreads);
  std::vector<std::vector<double>> want(kThreads);
  Rng rng(111);
  for (std::size_t i = 0; i < kThreads; ++i) {
    const std::size_t n = 1 + i % kTableMaxRows;
    rows[i].resize(n * 4);
    for (auto& v : rows[i]) v = rng.uniform() * 9.0;
    want[i] = reference(forest, rows[i], 4, 0.5, 0.25);
  }
  std::vector<std::vector<double>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      got[i].assign(want[i].size(), 0.25);
      start.arrive_and_wait();
      forest.accumulate(rows[i], 4, 0.5, got[i]);
    });
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i)
    for (std::size_t r = 0; r < want[i].size(); ++r)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i][r]),
                std::bit_cast<std::uint64_t>(got[i][r]))
          << "thread " << i << " row " << r;
  EXPECT_TRUE(forest.table_available());
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

TEST(SimdDescentTest, AutoSendsSmallBatchesToTheTableEngine) {
  // The batch-size cutoff: on a vector target, auto sends a table-
  // eligible forest's batches of up to kTableMaxRows rows — a scalar
  // predict() included — to the table engine and bigger ones to the
  // masked engine; both count their rows in anb.query.simd.rows. A forest
  // the masks cannot represent (a 9-leaf tree, like a deep RandomForest)
  // and scalar dispatch stay on the interleaved walk at every batch size,
  // counting no SIMD rows (ANB_SIMD=off: AnbSimdOffKeepsTheInterleavedWalk).
  ASSERT_EQ(kTableMaxRows, 15u);
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
  ASSERT_TRUE(gbdt.forest().table_available());
  const std::vector<double> x = make_family_rows(1, 0xD0);

  for (const simd::Target target : test_targets()) {
    simd::ScopedTarget st(target);
    const bool vector = target != simd::Target::kScalar;
    EXPECT_EQ(simd_rows_of([&] { (void)gbdt.predict(x); }), vector ? 1u : 0u)
        << simd::target_name(target);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, kTableMaxRows, kTableMaxRows + 1,
          std::size_t{40}}) {
      const DescentPath want = !vector              ? DescentPath::kInterleaved
                               : n <= kTableMaxRows ? DescentPath::kTable
                                                    : DescentPath::kMasked;
      EXPECT_EQ(gbdt.forest().auto_path(n), want)
          << simd::target_name(target) << " n=" << n;
      const std::vector<double> rows = make_family_rows(n, 0xD1 + n);
      std::vector<double> out(n);
      EXPECT_EQ(simd_rows_of([&] {
                  gbdt.predict_batch(rows, kNumFeatures, out);
                }),
                vector ? n : 0u)
          << simd::target_name(target) << " n=" << n;

      EXPECT_EQ(nine_leaves.auto_path(n), DescentPath::kInterleaved)
          << simd::target_name(target) << " n=" << n;
      const std::vector<double> col(n, 5.0);
      EXPECT_EQ(simd_rows_of([&] { nine_leaves.accumulate(col, 1, 1.0, out); }),
                0u)
          << simd::target_name(target) << " n=" << n;
    }
  }
}

TEST(SimdDescentTest, AnbSimdOffKeepsTheInterleavedWalk) {
  // ANB_SIMD is read once per process, so the check runs in a re-executed
  // child (gtest's threadsafe death-test style) that inherits
  // ANB_SIMD=off: there auto runs the interleaved walk at every batch
  // size, table-eligible forest or not, and counts no SIMD rows.
  (void)simd::env_disabled();  // this process keeps its own reading
  const char* const saved = std::getenv("ANB_SIMD");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ::setenv("ANB_SIMD", "off", 1);
  EXPECT_EXIT(
      {
        const FlatForest forest = make_table_forest(40);
        int code = simd::active_target() == simd::Target::kScalar ? 0 : 1;
        for (std::size_t n = 1; n <= 2 * kTableMaxRows && code == 0; ++n) {
          if (forest.auto_path(n) != DescentPath::kInterleaved) code = 2;
          std::vector<double> rows(n * 4, 2.0);
          std::vector<double> out(n);
          if (simd_rows_of([&] { forest.accumulate(rows, 4, 1.0, out); }) !=
              0)
            code = 3;
        }
        std::exit(code);
      },
      ::testing::ExitedWithCode(0), "");
  if (saved != nullptr)
    ::setenv("ANB_SIMD", saved_value.c_str(), 1);
  else
    ::unsetenv("ANB_SIMD");
}

TEST(SimdDescentTest, Avx512TargetRunsTheAvx2Engine) {
  // There is no AVX-512 descent kernel: the AVX-512 target is AVX2-capable
  // and must run the AVX2 masked and table kernels, pick the same engine
  // as AVX2 at every batch size, and predict the same bits for every
  // family.
  if (!simd::cpu_supports(simd::Target::kAvx512))
    GTEST_SKIP() << "no AVX-512 on this host";
  ASSERT_NE(detail::avx2_masked_kernel(), nullptr);
  EXPECT_EQ(detail::masked_kernel_for(simd::Target::kAvx512),
            detail::avx2_masked_kernel());
  EXPECT_EQ(detail::masked_kernel_for(simd::Target::kAvx2),
            detail::avx2_masked_kernel());
  ASSERT_NE(detail::avx2_table_kernel(), nullptr);
  EXPECT_EQ(detail::table_kernel_for(simd::Target::kAvx512),
            detail::avx2_table_kernel());
  EXPECT_EQ(detail::table_kernel_for(simd::Target::kAvx2),
            detail::avx2_table_kernel());

  HistGbdtParams hp;
  hp.n_estimators = 20;
  HistGbdt hist(hp);
  GbdtParams gp;
  gp.n_estimators = 20;
  gp.max_depth = 3;
  Gbdt gbdt(gp);
  RandomForestParams rp;
  rp.n_trees = 8;
  RandomForest forest(rp);
  Rng rng(72);
  hist.fit(make_family_dataset(300, 71), rng);
  gbdt.fit(make_family_dataset(300, 73), rng);
  forest.fit(make_family_dataset(300, 74), rng);
  for (const Surrogate* model :
       std::initializer_list<const Surrogate*>{&hist, &gbdt, &forest}) {
    for (const std::size_t n : kBatchSizes) {
      const std::vector<double> rows = make_family_rows(n, 0xE00 + n);
      std::vector<double> want(n);
      std::vector<double> got(n);
      std::uint64_t want_rows = 0;
      DescentPath want_path = DescentPath::kAuto;
      const FlatForest* const flat = model == &hist   ? &hist.forest()
                                     : model == &gbdt ? &gbdt.forest()
                                                      : nullptr;
      {
        simd::ScopedTarget st(simd::Target::kAvx2);
        want_rows = simd_rows_of(
            [&] { model->predict_batch(rows, kNumFeatures, want); });
        if (flat != nullptr) want_path = flat->auto_path(n);
      }
      simd::ScopedTarget st(simd::Target::kAvx512);
      if (flat != nullptr) {
        EXPECT_EQ(flat->auto_path(n), want_path) << model->name() << " n=" << n;
      }
      EXPECT_EQ(simd_rows_of(
                    [&] { model->predict_batch(rows, kNumFeatures, got); }),
                want_rows)
          << model->name() << " n=" << n;
      if (model == &gbdt && n >= kMaskedMinRows) {
        EXPECT_EQ(want_rows, n) << "n=" << n;
      }
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i]),
                  std::bit_cast<std::uint64_t>(got[i]))
            << model->name() << " n=" << n << " row=" << i;
    }
  }
}

}  // namespace
}  // namespace anb
