#include "anb/surrogate/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "anb/util/error.hpp"
#include "anb/util/simd.hpp"

namespace anb {
namespace {

using Tree = std::vector<FlatNode>;

/// The leaf value `x` reaches.
double predict(const Tree& tree, const std::vector<double>& x) {
  return walk_tree(tree.data(), 0, x.data());
}

bool is_leaf(const Tree& tree, std::size_t i) {
  return tree[i].left == static_cast<int>(i) &&
         tree[i].right == static_cast<int>(i);
}

int num_leaves(const Tree& tree) {
  int leaves = 0;
  for (std::size_t i = 0; i < tree.size(); ++i) leaves += is_leaf(tree, i);
  return leaves;
}

/// Fit a plain variance-reduction tree (g = -y, h = 1).
Tree fit_variance_tree(const Dataset& data, TreeParams params,
                       std::uint64_t seed = 1) {
  const std::size_t n = data.size();
  std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = -data.target(i);
  params.lambda = 0.0;
  const ColumnIndex columns(data);
  Rng rng(seed);
  return build_tree(data, columns, g, h, w, params, rng);
}

Dataset and_dataset() {
  // y = AND(x0, x1): needs depth 2 for an exact fit, and unlike XOR the
  // first greedy split already has positive gain.
  Dataset ds(2);
  for (int rep = 0; rep < 4; ++rep) {
    ds.add(std::vector<double>{0, 0}, 0.0);
    ds.add(std::vector<double>{0, 1}, 0.0);
    ds.add(std::vector<double>{1, 0}, 0.0);
    ds.add(std::vector<double>{1, 1}, 1.0);
  }
  return ds;
}

TEST(TreeTest, StumpSplitsOnInformativeFeature) {
  Dataset ds(2);
  // Feature 1 is pure noise; feature 0 perfectly separates targets.
  ds.add(std::vector<double>{0.0, 1.0}, -1.0);
  ds.add(std::vector<double>{0.0, 0.0}, -1.0);
  ds.add(std::vector<double>{1.0, 1.0}, 1.0);
  ds.add(std::vector<double>{1.0, 0.0}, 1.0);
  TreeParams params;
  params.max_depth = 1;
  const Tree tree = fit_variance_tree(ds, params);
  EXPECT_FALSE(is_leaf(tree, 0));
  EXPECT_EQ(tree[0].feature, 0);
  EXPECT_EQ(num_leaves(tree), 2);
  EXPECT_DOUBLE_EQ(predict(tree, std::vector<double>{0.0, 0.5}), -1.0);
  EXPECT_DOUBLE_EQ(predict(tree, std::vector<double>{1.0, 0.5}), 1.0);
}

TEST(TreeTest, DepthTwoSolvesAnd) {
  TreeParams params;
  params.max_depth = 2;
  const Tree tree = fit_variance_tree(and_dataset(), params);
  EXPECT_DOUBLE_EQ(predict(tree, std::vector<double>{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(predict(tree, std::vector<double>{0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(predict(tree, std::vector<double>{1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(predict(tree, std::vector<double>{1, 1}), 1.0);
}

TEST(TreeTest, DepthOneCannotSolveAnd) {
  TreeParams params;
  params.max_depth = 1;
  const Tree tree = fit_variance_tree(and_dataset(), params);
  // One split can only separate a mean-0 side from a mean-0.5 side.
  EXPECT_NEAR(predict(tree, std::vector<double>{1, 1}), 0.5, 1e-9);
  EXPECT_NEAR(predict(tree, std::vector<double>{0, 0}), 0.0, 1e-9);
}

TEST(TreeTest, ConstantTargetGivesSingleLeaf) {
  Dataset ds(2);
  for (int i = 0; i < 10; ++i)
    ds.add(std::vector<double>{static_cast<double>(i), 1.0}, 5.0);
  TreeParams params;
  params.max_depth = 4;
  const Tree tree = fit_variance_tree(ds, params);
  EXPECT_EQ(num_leaves(tree), 1);
  EXPECT_DOUBLE_EQ(predict(tree, std::vector<double>{3.0, 1.0}), 5.0);
}

TEST(TreeTest, MinSamplesLeafRespected) {
  Dataset ds(1);
  // 9 points at x=0 (y=0), 1 point at x=1 (y=10): split would isolate 1 row.
  for (int i = 0; i < 9; ++i) ds.add(std::vector<double>{0.0}, 0.0);
  ds.add(std::vector<double>{1.0}, 10.0);
  TreeParams params;
  params.max_depth = 3;
  params.min_samples_leaf = 2.0;
  const Tree tree = fit_variance_tree(ds, params);
  EXPECT_EQ(num_leaves(tree), 1);
}

TEST(TreeTest, RowWeightsExcludeRows) {
  Dataset ds(1);
  ds.add(std::vector<double>{0.0}, 0.0);
  ds.add(std::vector<double>{1.0}, 100.0);  // excluded below
  ds.add(std::vector<double>{0.2}, 0.0);
  std::vector<double> g{0.0, -100.0, 0.0};
  std::vector<double> h(3, 1.0);
  std::vector<double> w{1.0, 0.0, 1.0};
  TreeParams params;
  params.max_depth = 2;
  params.lambda = 0.0;
  const ColumnIndex columns(ds);
  Rng rng(1);
  const Tree tree = build_tree(ds, columns, g, h, w, params, rng);
  // The excluded outlier must not influence any leaf.
  EXPECT_DOUBLE_EQ(predict(tree, std::vector<double>{1.0}), 0.0);
}

TEST(TreeTest, LambdaShrinksLeafValues) {
  Dataset ds(1);
  ds.add(std::vector<double>{0.0}, 0.0);
  ds.add(std::vector<double>{1.0}, 4.0);
  const std::size_t n = ds.size();
  std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = -ds.target(i);
  TreeParams params;
  params.max_depth = 1;
  params.lambda = 1.0;  // leaf = sum(y) / (count + lambda)
  const ColumnIndex columns(ds);
  Rng rng(1);
  const Tree tree = build_tree(ds, columns, g, h, w, params, rng);
  // Leaf value = sum(y) / (count + lambda): 0/2 and 4/2.
  EXPECT_NEAR(predict(tree, std::vector<double>{0.0}), 0.0, 1e-9);
  EXPECT_NEAR(predict(tree, std::vector<double>{1.0}), 2.0, 1e-9);
}

TEST(TreeTest, GammaBlocksWeakSplits) {
  Dataset ds(1);
  ds.add(std::vector<double>{0.0}, 0.0);
  ds.add(std::vector<double>{1.0}, 0.1);  // tiny gain
  TreeParams params;
  params.max_depth = 2;
  params.gamma = 1.0;
  const Tree tree = fit_variance_tree(ds, params);
  EXPECT_EQ(num_leaves(tree), 1);
}

TEST(TreeTest, PredictValidatesDimensions) {
  TreeParams params;
  params.max_depth = 2;
  const FlatForest forest(std::vector<Tree>{
      fit_variance_tree(and_dataset(), params)});
  EXPECT_THROW((void)forest.predict_tree(0, std::vector<double>{1.0}), Error);
}

TEST(TreeTest, ColumnIndexSortsColumns) {
  Dataset ds(2);
  ds.add(std::vector<double>{3.0, 0.0}, 0.0);
  ds.add(std::vector<double>{1.0, 2.0}, 0.0);
  ds.add(std::vector<double>{2.0, 1.0}, 0.0);
  const ColumnIndex columns(ds);
  const auto col0 = columns.sorted_rows(0);
  EXPECT_EQ(col0[0], 1u);
  EXPECT_EQ(col0[1], 2u);
  EXPECT_EQ(col0[2], 0u);
  EXPECT_THROW(columns.sorted_rows(2), Error);
}

TEST(TreeTest, TopRunBeginsAtTheTiedLargestValues) {
  Dataset ds(3);
  ds.add(std::vector<double>{3.0, 1.0, 4.0}, 0.0);
  ds.add(std::vector<double>{1.0, 0.0, 4.0}, 0.0);
  ds.add(std::vector<double>{2.0, 1.0, 4.0}, 0.0);
  ds.add(std::vector<double>{3.0, 1.0, 4.0}, 0.0);
  const ColumnIndex columns(ds);
  EXPECT_EQ(columns.top_run_begin(0), 2u);  // 1 2 | 3 3
  EXPECT_EQ(columns.top_run_begin(1), 1u);  // 0 | 1 1 1
  EXPECT_EQ(columns.top_run_begin(2), 0u);  // constant
  EXPECT_THROW(columns.top_run_begin(3), Error);
}

TEST(TreeTest, RowMasksMarkRowsBelowTheTopOfTwoValuedColumns) {
  Dataset ds(4);
  ds.add(std::vector<double>{3.0, 1.0, 4.0, -1.0}, 0.0);
  ds.add(std::vector<double>{1.0, 0.0, 4.0, 2.0}, 0.0);
  ds.add(std::vector<double>{2.0, 1.0, 4.0, 2.0}, 0.0);
  const ColumnIndex columns(ds);
  // Column 0 is multi-valued and column 2 constant: neither has a bit.
  const std::vector<std::uint32_t> two_valued(
      columns.two_valued_columns().begin(), columns.two_valued_columns().end());
  EXPECT_EQ(two_valued, (std::vector<std::uint32_t>{1, 3}));
  ASSERT_EQ(columns.mask_words(), 1u);
  const auto masks = columns.below_top_masks();
  ASSERT_EQ(masks.size(), 3u);
  EXPECT_EQ(masks[0], 0b10u);  // below the top of column 3 only
  EXPECT_EQ(masks[1], 0b01u);  // below the top of column 1 only
  EXPECT_EQ(masks[2], 0b00u);
}

TEST(TreeTest, RowMasksSpanSeveralWords) {
  constexpr std::size_t kColumns = 70;
  Dataset ds(kColumns);
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<double> x(kColumns);
    for (std::size_t j = 0; j < kColumns; ++j) x[j] = j % 3 == r ? 1.0 : 0.0;
    ds.add(x, 0.0);
  }
  const ColumnIndex columns(ds);
  ASSERT_EQ(columns.two_valued_columns().size(), kColumns);
  ASSERT_EQ(columns.mask_words(), 2u);
  const auto masks = columns.below_top_masks();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t j = 0; j < kColumns; ++j) {
      const bool below = (masks[r * 2 + j / 64] >> (j % 64) & 1) != 0;
      EXPECT_EQ(below, j % 3 != r) << "row " << r << " column " << j;
    }
  }
}

TEST(TreeTest, BuilderReportsTheLeafPredictReaches) {
  Dataset ds(3);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x{rng.uniform(), rng.bernoulli(0.4) ? 1.0 : 0.0,
                                static_cast<double>(rng.uniform_index(3))};
    ds.add(x, x[0] * x[2] - x[1] + 0.1 * rng.normal());
  }
  const std::size_t n = ds.size();
  std::vector<double> g(n), h(n, 1.0), w(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = -ds.target(i);
    w[i] = rng.bernoulli(0.7) ? 1.0 : 0.0;
  }
  TreeParams params;
  params.max_depth = 4;
  const ColumnIndex columns(ds);
  TreeBuilder builder(ds, columns);
  std::vector<int> leaf(n);
  // Two builds through one builder: scratch reuse must not leak state.
  for (int round = 0; round < 2; ++round) {
    const Tree tree = builder.build(g, h, w, params, rng, leaf);
    for (std::size_t i = 0; i < n; ++i) {
      if (w[i] == 0.0) {
        EXPECT_EQ(leaf[i], -1) << "row " << i;
        continue;
      }
      ASSERT_GE(leaf[i], 0) << "row " << i;
      const auto at = static_cast<std::size_t>(leaf[i]);
      EXPECT_TRUE(is_leaf(tree, at)) << "row " << i;
      EXPECT_EQ(tree[at].split, walk_tree(tree.data(), 0, ds.row(i).data()))
          << "row " << i;
    }
  }
  std::vector<int> wrong_size(n - 1);
  EXPECT_THROW(builder.build(g, h, w, params, rng, wrong_size), Error);
}

/// An exact-greedy reference builder that shares no code with
/// TreeBuilder and routes every row by its value: level by level, each
/// node's rows ascending; every column scanned in feature order over the
/// node's rows sorted stably by value, a candidate between each two
/// distinct values, and the first best gain kept. No column sampling.
Tree value_routed_tree(const Dataset& data, const std::vector<double>& g,
                       const std::vector<double>& h,
                       const std::vector<double>& w,
                       const TreeParams& params) {
  struct Sums {
    double g = 0.0, h = 0.0, w = 0.0;
    void add(double gi, double hi, double wi) {
      g += wi * gi;
      h += wi * hi;
      w += wi;
    }
  };
  const auto leaf_gain = [&](double sg, double sh) {
    return sg * sg / (sh + params.lambda);
  };
  Tree nodes(1);
  std::vector<int> ids{0};
  std::vector<std::vector<std::uint32_t>> rows(1);
  for (std::uint32_t i = 0; i < data.size(); ++i) {
    if (w[i] != 0.0) rows[0].push_back(i);
  }
  const auto sums_of = [&](const std::vector<std::uint32_t>& r) {
    Sums total;
    for (const std::uint32_t i : r) total.add(g[i], h[i], w[i]);
    return total;
  };
  const auto make_leaf = [&](int id, const Sums& total) {
    nodes[static_cast<std::size_t>(id)] = {
        total.w > 0.0 ? -total.g / (total.h + params.lambda) : 0.0, 0, id,
        id};
  };
  for (int depth = 0; depth < params.max_depth && !ids.empty(); ++depth) {
    std::vector<int> next_ids;
    std::vector<std::vector<std::uint32_t>> next_rows;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const Sums total = sums_of(rows[k]);
      const double parent = leaf_gain(total.g, total.h);
      double best_gain = -std::numeric_limits<double>::infinity();
      int best_feature = -1;
      double best_threshold = 0.0;
      for (std::size_t f = 0; f < data.num_features(); ++f) {
        std::vector<std::uint32_t> order = rows[k];
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return data.feature(a, f) < data.feature(b, f);
                         });
        Sums left;
        for (std::size_t s = 0; s < order.size(); ++s) {
          const double v = data.feature(order[s], f);
          const double prev = s > 0 ? data.feature(order[s - 1], f) : v;
          if (s > 0 && v > prev) {
            const double rh = total.h - left.h;
            const double rw = total.w - left.w;
            if (left.h >= params.min_child_weight &&
                rh >= params.min_child_weight &&
                left.w >= params.min_samples_leaf &&
                rw >= params.min_samples_leaf) {
              const double gain = leaf_gain(left.g, left.h) +
                                  leaf_gain(total.g - left.g, rh) - parent;
              if (gain > best_gain) {
                best_gain = gain;
                best_feature = static_cast<int>(f);
                best_threshold = 0.5 * (prev + v);
              }
            }
          }
          left.add(g[order[s]], h[order[s]], w[order[s]]);
        }
      }
      if (best_feature < 0 || !(best_gain > params.gamma)) {
        make_leaf(ids[k], total);
        continue;
      }
      const int left_child = static_cast<int>(nodes.size());
      nodes[static_cast<std::size_t>(ids[k])] = {best_threshold, best_feature,
                                                 left_child, left_child + 1};
      nodes.emplace_back();
      nodes.emplace_back();
      std::vector<std::uint32_t> lo, hi;
      for (const std::uint32_t i : rows[k]) {
        const auto f = static_cast<std::size_t>(best_feature);
        (data.feature(i, f) < best_threshold ? lo : hi).push_back(i);
      }
      next_ids.push_back(left_child);
      next_ids.push_back(left_child + 1);
      next_rows.push_back(std::move(lo));
      next_rows.push_back(std::move(hi));
    }
    ids.swap(next_ids);
    rows.swap(next_rows);
  }
  for (std::size_t k = 0; k < ids.size(); ++k)
    make_leaf(ids[k], sums_of(rows[k]));
  return nodes;
}

/// The index of the leaf walk_tree reaches for `x`.
int walk_leaf(const Tree& tree, const double* x) {
  std::int32_t at = 0;
  for (std::int32_t next = step(tree.data(), at, x); next != at;
       next = step(tree.data(), at, x)) {
    at = next;
  }
  return at;
}

/// Bit-for-bit node equality.
void expect_same_tree(const Tree& want, const Tree& got, const char* label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].feature, got[i].feature) << label << " node " << i;
    EXPECT_EQ(want[i].left, got[i].left) << label << " node " << i;
    EXPECT_EQ(want[i].right, got[i].right) << label << " node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i].split),
              std::bit_cast<std::uint64_t>(got[i].split))
        << label << " node " << i;
  }
}

/// Fits one tree with unit hessians and weights (the rows the split
/// kernel takes) under the scalar scatter and, where the CPU has them, the
/// AVX2 and AVX-512 kernels. Each must equal the value-routed reference,
/// and every row must be reported in the leaf walk_tree reaches.
void expect_value_routing(const Dataset& data, const TreeParams& params,
                          const char* label) {
  const std::size_t n = data.size();
  std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = 0.25 - data.target(i);
  const Tree want = value_routed_tree(data, g, h, w, params);
  ASSERT_GT(want.size(), 1u) << label << ": the reference never splits";
  const ColumnIndex columns(data);
  for (const simd::Target target :
       {simd::Target::kScalar, simd::Target::kAvx2, simd::Target::kAvx512}) {
    if (!simd::cpu_supports(target)) continue;
    simd::ScopedTarget scoped(target);
    TreeBuilder builder(data, columns);
    Rng rng(1);
    std::vector<int> leaf(n);
    const Tree got = builder.build(g, h, w, params, rng, leaf);
    expect_same_tree(want, got, label);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GE(leaf[i], 0) << label << " row " << i;
      EXPECT_EQ(leaf[i], walk_leaf(got, data.row(i).data()))
          << label << " row " << i << " target "
          << simd::target_name(target);
    }
  }
}

TEST(TreeTest, SplitOnAColumnWhoseMidpointRoundsOntoItsLowValue) {
  // Column 0 holds 1.0 and the next double up: their midpoint rounds to
  // 1.0, so `x < threshold` holds for no row and every row goes right,
  // although the row masks mark the 1.0 rows as below the top run. The
  // other columns are 0/1; one variant adds a multi-valued column, which
  // makes the builder track each row's node.
  const double low = 1.0;
  const double top = std::nextafter(1.0, 2.0);
  ASSERT_EQ(0.5 * (low + top), low);
  for (const bool multi_valued : {false, true}) {
    Dataset ds(multi_valued ? 5 : 4);
    Rng rng(21);
    for (int i = 0; i < 160; ++i) {
      std::vector<double> x{rng.bernoulli(0.5) ? top : low};
      for (int j = 0; j < 3; ++j) x.push_back(rng.bernoulli(0.5) ? 1.0 : 0.0);
      if (multi_valued) x.push_back(rng.uniform());
      ds.add(x, (x[0] == top ? 3.0 : 0.0) + x[1] + 0.1 * rng.normal());
    }
    TreeParams params;
    params.max_depth = 4;
    expect_value_routing(ds, params, multi_valued ? "with a multi-valued column"
                                                  : "0/1 columns only");
  }
}

TEST(TreeTest, SplitOnATwoValuedColumnPastTheFirstMaskWord) {
  // 70 one-hot-like 0/1 columns: the target follows columns 66 and 68,
  // whose bits sit in the second mask word.
  constexpr std::size_t kColumns = 70;
  Dataset ds(kColumns);
  Rng rng(22);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(kColumns);
    for (double& v : x) v = rng.bernoulli(0.3) ? 1.0 : 0.0;
    ds.add(x, 2.0 * x[68] - 1.5 * x[66] + 0.3 * x[2] + 0.05 * rng.normal());
  }
  const ColumnIndex columns(ds);
  ASSERT_EQ(columns.two_valued_columns().size(), kColumns);
  TreeParams params;
  params.max_depth = 5;
  expect_value_routing(ds, params, "bit 68");
  const std::size_t n = ds.size();
  std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = 0.25 - ds.target(i);
  const Tree reference = value_routed_tree(ds, g, h, w, params);
  EXPECT_EQ(reference[0].feature, 68);
}

TEST(TreeTest, MaxDepthBoundsLeafCount) {
  Dataset ds(4);
  Rng rng(5);
  for (int i = 0; i < 256; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    ds.add(x, rng.normal());
  }
  for (int depth : {1, 2, 3, 4}) {
    TreeParams params;
    params.max_depth = depth;
    const Tree tree = fit_variance_tree(ds, params);
    EXPECT_LE(num_leaves(tree), 1 << depth) << "depth=" << depth;
  }
}

}  // namespace
}  // namespace anb
