// Differential suite for the count-exact split kernel of the tree builder
// (src/surrogate/split_kernels.hpp). Under the scalar dispatch target the
// builder sums two-valued columns with its sparse per-row scatter; under
// AVX2 a unit-row fit (every live row h = 1, w = 1) goes through the
// kernel. Every fitted tree must be bit-identical either way, so each
// case fingerprints the same fit under both targets. The Isa ops the
// kernel is built from are checked op by op against ScalarIsa.
//
// Separate test binary: these tests force the process-global dispatch
// target.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/tree.hpp"
#include "anb/util/rng.hpp"
#include "anb/util/simd.hpp"
#include "split_kernels.hpp"

namespace anb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool have_avx2() {
  return simd::cpu_supports(simd::Target::kAvx2) &&
         detail::avx2_unit_split_kernel() != nullptr;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// `layers` one-hot blocks of `choices` 0/1 columns each; the target
/// rewards some choices, so trees split on many columns.
Dataset onehot_dataset(int n, int layers, int choices, std::uint64_t seed) {
  Dataset ds(static_cast<std::size_t>(layers * choices));
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x;
    double y = 0.0;
    for (int l = 0; l < layers; ++l) {
      const auto c = rng.uniform_index(static_cast<std::uint64_t>(choices));
      for (int o = 0; o < choices; ++o)
        x.push_back(c == static_cast<std::uint64_t>(o) ? 1.0 : 0.0);
      y += 0.1 * static_cast<double>(c) * static_cast<double>(l % 4 + 1) -
           (c == 2 ? 0.3 : 0.0);
    }
    ds.add(x, y + 0.05 * rng.normal());
  }
  return ds;
}

/// Hash of every node bit and of the rng position after the build.
/// A leaf, the self-looping node, hashes as (-1, 0, -1, -1, value).
std::uint64_t fingerprint(const std::vector<FlatNode>& tree, Rng& rng) {
  auto index = [](int i) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(i));
  };
  Fnv fnv;
  for (int i = 0; i < static_cast<int>(tree.size()); ++i) {
    const FlatNode& node = tree[static_cast<std::size_t>(i)];
    const bool leaf = node.left == i && node.right == i;
    fnv.add(index(leaf ? -1 : node.feature));
    fnv.add(leaf ? 0.0 : node.split);
    fnv.add(index(leaf ? -1 : node.left));
    fnv.add(index(leaf ? -1 : node.right));
    fnv.add(leaf ? node.split : 0.0);
  }
  fnv.add(rng());
  return fnv.h;
}

/// One tree with unit hessians and the given g and 0/1 weights.
std::uint64_t tree_fingerprint(const Dataset& data, std::span<const double> g,
                               std::span<const double> w,
                               const TreeParams& params, std::uint64_t seed,
                               std::vector<int>* leaf = nullptr) {
  const ColumnIndex columns(data);
  TreeBuilder builder(data, columns);
  const std::vector<double> h(data.size(), 1.0);
  std::vector<int> row_leaf(data.size());
  Rng rng(seed);
  const std::vector<FlatNode> tree =
      builder.build(g, h, w, params, rng, row_leaf);
  if (leaf != nullptr) *leaf = row_leaf;
  return fingerprint(tree, rng);
}

std::vector<double> residuals(const Dataset& data) {
  std::vector<double> g(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) g[i] = 0.2 - data.target(i);
  return g;
}

/// Runs `fit` under the scalar target and under AVX2 and demands the same
/// fingerprint.
template <class Fit>
void expect_targets_agree(Fit fit, const char* label) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 split kernel on this host";
  std::uint64_t scalar = 0;
  {
    simd::ScopedTarget st(simd::Target::kScalar);
    scalar = fit();
  }
  simd::ScopedTarget st(simd::Target::kAvx2);
  EXPECT_EQ(scalar, fit()) << label;
}

TEST(SplitKernelTest, OneAndThreeMaskWords) {
  for (const int layers : {9, 22}) {  // 63 and 154 two-valued columns
    const Dataset data = onehot_dataset(700, layers, 7, 5);
    const std::vector<double> g = residuals(data);
    const std::vector<double> w(data.size(), 1.0);
    TreeParams deep;
    deep.max_depth = 10;
    deep.lambda = 0.0;
    deep.gamma = 1e-12;
    deep.min_child_weight = 0.0;
    expect_targets_agree(
        [&] { return tree_fingerprint(data, g, w, deep, 1); },
        layers == 9 ? "63 columns" : "154 columns");
  }
}

TEST(SplitKernelTest, NodesPastTheCounterFlush) {
  // The root holds 1100 rows (four byte-counter flushes) and its children
  // several hundred each.
  const Dataset data = onehot_dataset(1100, 22, 7, 6);
  const std::vector<double> g = residuals(data);
  const std::vector<double> w(data.size(), 1.0);
  for (const int depth : {1, 3}) {
    TreeParams params;
    params.max_depth = depth;
    expect_targets_agree(
        [&] { return tree_fingerprint(data, g, w, params, 2); },
        "flush");
  }
}

TEST(SplitKernelTest, ColumnSamplingOnAndOff) {
  const Dataset data = onehot_dataset(600, 22, 7, 7);
  const std::vector<double> g = residuals(data);
  std::vector<double> w(data.size());
  Rng rng(3);
  for (double& v : w) v = rng.bernoulli(0.8) ? 1.0 : 0.0;
  for (const int per_node : {-1, 1, 5, 40, 153}) {
    TreeParams params;
    params.max_depth = 6;
    params.features_per_node = per_node;
    expect_targets_agree(
        [&] { return tree_fingerprint(data, g, w, params, 4); },
        "features_per_node");
  }
  // And whole Gbdt fits, with and without colsample and subsample.
  for (const double colsample : {1.0, 0.5}) {
    GbdtParams gp;
    gp.n_estimators = 25;
    gp.max_depth = 5;
    gp.colsample = colsample;
    gp.subsample = colsample < 1.0 ? 0.8 : 1.0;
    expect_targets_agree(
        [&] {
          Gbdt model(gp);
          Rng fit_rng(9);
          model.fit(data, fit_rng);
          Fnv fnv;
          for (const char c : model.to_json().dump())
            fnv.add(static_cast<std::uint64_t>(c));
          fnv.add(fit_rng());
          return fnv.h;
        },
        "Gbdt");
  }
}

TEST(SplitKernelTest, ChildLimitsExactlyAtACount) {
  // Columns 0 and 1 both split off the same 37 of 300 rows, which the
  // target follows: column 0 holds them below its top run (left), column
  // 1 above it (right). So the root splits on column 0 or 1 unless the
  // limits rule out both sides' short one, and each limit is checked on
  // either side of a candidate.
  constexpr int kRows = 300;
  constexpr int kStep = 37;
  Dataset data(6);
  Rng rng(8);
  for (int i = 0; i < kRows; ++i) {
    std::vector<double> x(6);
    x[0] = i < kStep ? 0.0 : 1.0;
    x[1] = 1.0 - x[0];
    for (std::size_t f = 2; f < x.size(); ++f)
      x[f] = rng.bernoulli(0.5) ? 1.0 : 0.0;
    data.add(x, (i < kStep ? 3.0 : 0.0) + 0.1 * x[2] + 0.01 * rng.normal());
  }
  const std::vector<double> g = residuals(data);
  const std::vector<double> w(data.size(), 1.0);
  struct Case {
    double min_child_weight, min_samples_leaf;
    bool splits_the_step;
  };
  const Case cases[] = {
      {kStep, 1.0, true},   {kStep + 1, 1.0, false},
      {1.0, kStep, true},   {1.0, kStep + 1, false},
      {kStep, kStep, true}, {kRows - kStep, 1.0, false},
  };
  for (const Case& c : cases) {
    TreeParams params;
    params.max_depth = 1;
    params.lambda = 0.0;
    params.min_child_weight = c.min_child_weight;
    params.min_samples_leaf = c.min_samples_leaf;
    expect_targets_agree(
        [&] { return tree_fingerprint(data, g, w, params, 5); },
        "limits");
    for (const simd::Target target :
         {simd::Target::kScalar, simd::Target::kAvx2}) {
      if (!simd::cpu_supports(target)) continue;
      simd::ScopedTarget st(target);
      const ColumnIndex columns(data);
      Rng fit_rng(5);
      const std::vector<double> h(data.size(), 1.0);
      const std::vector<FlatNode> tree =
          build_tree(data, columns, g, h, w, params, fit_rng);
      const bool root_is_leaf = tree[0].left == 0;
      const int feature = root_is_leaf ? -1 : tree[0].feature;
      EXPECT_EQ(feature == 0 || feature == 1, c.splits_the_step)
          << "min_child_weight=" << c.min_child_weight
          << " min_samples_leaf=" << c.min_samples_leaf
          << " target=" << simd::target_name(target);
    }
  }
}

TEST(SplitKernelTest, SignedZeroAndInfiniteGradients) {
  const Dataset data = onehot_dataset(400, 9, 7, 9);
  const std::vector<double> base = residuals(data);
  const std::vector<double> w(data.size(), 1.0);
  TreeParams params;
  params.max_depth = 4;
  params.min_child_weight = 0.0;
  // Each set puts its specials on low rows, so they are the first addend
  // of many column sums, and on scattered rows further on.
  const std::vector<std::vector<double>> specials = {
      {-0.0}, {-0.0, -0.0, 0.5}, {kInf}, {-kInf}, {kInf, -kInf}};
  for (const auto& values : specials) {
    std::vector<double> g = base;
    for (std::size_t k = 0; k < values.size(); ++k) {
      g[k] = values[k];
      g[97 + 61 * k] = values[k];
    }
    expect_targets_agree(
        [&] {
          std::vector<int> leaf;
          const std::uint64_t tree =
              tree_fingerprint(data, g, w, params, 6, &leaf);
          Fnv fnv;
          fnv.add(tree);
          for (const int l : leaf) fnv.add(static_cast<std::uint64_t>(l));
          return fnv.h;
        },
        "special gradients");
  }
  // An all -0.0 gradient: every column sum must stay +0.0.
  const std::vector<double> zeros(data.size(), -0.0);
  expect_targets_agree(
      [&] { return tree_fingerprint(data, zeros, w, params, 7); }, "all -0.0");
}

TEST(SplitKernelTest, KernelMatchesTheScatterOnOneNode) {
  // The kernel alone on a hand-built node: 3 mask words, an ascending
  // subset of 900 rows, sampled columns in every word.
  const detail::UnitSplitFn kernel = detail::avx2_unit_split_kernel();
  if (!simd::cpu_supports(simd::Target::kAvx2) || kernel == nullptr)
    GTEST_SKIP() << "no AVX2 split kernel on this host";
  constexpr std::size_t kWords = 3;
  constexpr std::size_t kRows = 900;
  Rng rng(10);
  std::vector<std::uint64_t> masks(kRows * kWords);
  for (auto& m : masks) m = rng() & rng();  // about a quarter of bits set
  std::vector<std::uint32_t> rows;
  std::vector<double> g;
  for (std::uint32_t r = 0; r < kRows;
       r += 1 + static_cast<std::uint32_t>(r % 3 == 0)) {
    rows.push_back(r);
    g.push_back(rng.normal() * (r % 7 == 0 ? 1e6 : 1.0));
  }
  g[0] = -0.0;
  // Column 0 holds every row of the node, so its byte lane counts past
  // 255. Columns 2 and 3 hold one row fewer than min_child_weight (60)
  // and exactly as many.
  for (std::size_t s = 0; s < rows.size(); ++s) {
    std::uint64_t& word = masks[std::size_t{rows[s]} * kWords];
    word = (word & ~std::uint64_t{0xC}) | 1U;
    if (s < 59) word |= 0x4;
    if (s < 60) word |= 0x8;
  }
  const std::uint64_t sampled[kWords] = {~std::uint64_t{0}, rng(),
                                         0x00000000FFFF0001ULL};
  double total_g = 0.0;
  for (const double v : g) total_g += v;
  detail::UnitNode node;
  node.rows = rows.data();
  node.g = g.data();
  node.size = rows.size();
  node.masks = masks.data();
  node.words = kWords;
  node.sampled = sampled;
  node.total_g = total_g;
  node.lambda = 1.0;
  node.parent_gain =
      total_g * total_g / (static_cast<double>(rows.size()) + node.lambda);
  node.min_child_weight = 60.0;
  node.min_samples_leaf = 2.0;
  std::vector<double> gain(64 * kWords);
  std::vector<std::uint64_t> valid(kWords);
  kernel(node, gain.data(), valid.data());
  EXPECT_EQ(valid[0] & 0xD, 0x8U);  // of columns 0, 2 and 3 only 3 is legal

  const double n = static_cast<double>(rows.size());
  int offered = 0;
  for (std::size_t t = 0; t < 64 * kWords; ++t) {
    if (((sampled[t / 64] >> (t % 64)) & 1U) == 0) continue;
    double lg = 0.0;
    double count = 0.0;
    for (std::size_t s = 0; s < rows.size(); ++s) {
      if ((masks[rows[s] * kWords + t / 64] >> (t % 64)) & 1U) {
        lg += g[s];
        count += 1.0;
      }
    }
    const double rg = total_g - lg;
    const double rh = n - count;
    const bool legal = count > 0.0 && count < n &&
                       count >= node.min_child_weight &&
                       rh >= node.min_child_weight &&
                       count >= node.min_samples_leaf &&
                       rh >= node.min_samples_leaf;
    EXPECT_EQ(legal, ((valid[t / 64] >> (t % 64)) & 1U) != 0) << "t=" << t;
    if (!legal) continue;
    ++offered;
    const double want = lg * lg / (count + node.lambda) +
                        rg * rg / (rh + node.lambda) - node.parent_gain;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want),
              std::bit_cast<std::uint64_t>(gain[t]))
        << "t=" << t;
  }
  EXPECT_GT(offered, 50);
}

/// Bitwise equality of two probe results, op by op.
void expect_probes_equal(const detail::IsaProbe& want,
                         const detail::IsaProbe& got, const char* label) {
  auto same = [&](const void* a, const void* b, std::size_t bytes,
                  const char* op) {
    EXPECT_EQ(0, std::memcmp(a, b, bytes)) << label << " op=" << op;
  };
  same(want.zero, got.zero, sizeof want.zero, "d_zero");
  same(want.splat, got.splat, sizeof want.splat, "d_splat");
  same(want.add, got.add, sizeof want.add, "d_add");
  same(want.sub, got.sub, sizeof want.sub, "d_sub");
  same(want.mul, got.mul, sizeof want.mul, "d_mul");
  same(want.div, got.div, sizeof want.div, "d_div");
  same(want.conj, got.conj, sizeof want.conj, "d_and");
  same(want.ge, got.ge, sizeof want.ge, "d_cmpge");
  same(want.gt, got.gt, sizeof want.gt, "d_cmpgt");
  same(want.keep, got.keep, sizeof want.keep, "d_keep");
  EXPECT_EQ(want.mask_ge, got.mask_ge) << label << " op=d_movemask(cmpge)";
  EXPECT_EQ(want.sign_a, got.sign_a) << label << " op=d_movemask";
  same(want.bsplat, got.bsplat, sizeof want.bsplat, "b_splat");
  same(want.bones, got.bones, sizeof want.bones, "b_ones");
  same(want.bits_lo, got.bits_lo, sizeof want.bits_lo, "b_bits(lo)");
  same(want.bits_hi, got.bits_hi, sizeof want.bits_hi, "b_bits(hi)");
  same(want.bsub, got.bsub, sizeof want.bsub, "b_sub");
  same(want.band, got.band, sizeof want.band, "b_and");
  same(want.bor, got.bor, sizeof want.bor, "b_or");
  same(want.blt, got.blt, sizeof want.blt, "b_cmplt_s8");
}

TEST(SimdOpsTest, Avx2OpsMatchScalarIsa) {
  const detail::IsaProbeFn avx2 = detail::avx2_isa_probe();
  if (!simd::cpu_supports(simd::Target::kAvx2) || avx2 == nullptr)
    GTEST_SKIP() << "no AVX2 build of the Isa ops on this host";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // One NaN only: which of two NaN operands a lane returns is not part of
  // either side's contract.
  const double specials[] = {0.0,  -0.0,   1.0,     -1.0,  kInf, -kInf, nan,
                             1e-310, -3e-320, 1e308, 0.1,  7.0,   3.0};
  Rng rng(11);
  auto pick = [&] {
    return rng.bernoulli(0.5)
               ? specials[rng.uniform_index(std::size(specials))]
               : rng.normal() * std::ldexp(1.0, static_cast<int>(
                                                    rng.uniform_index(80)) -
                                                    40);
  };
  for (int round = 0; round < 2000; ++round) {
    detail::IsaProbe in;
    for (int j = 0; j < 4; ++j) {
      in.a[j] = pick();
      in.b[j] = rng.bernoulli(0.2) ? in.a[j] : pick();
    }
    in.word = round % 4 == 0 ? ~std::uint64_t{0} >> (round % 64) : rng();
    for (int i = 0; i < 32; ++i) {
      in.x[i] = static_cast<std::uint8_t>(rng());
      in.y[i] = rng.bernoulli(0.2) ? in.x[i] : static_cast<std::uint8_t>(rng());
    }
    detail::IsaProbe want = in;
    detail::IsaProbe got = in;
    detail::kernels::probe_isa<simd::ScalarIsa>(want);
    avx2(got);
    expect_probes_equal(want, got, "random");
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace anb
