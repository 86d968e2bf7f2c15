// Differential suite for the count-exact split kernel of the tree builder
// (src/surrogate/split_kernels.hpp). Under the scalar dispatch target the
// builder sums two-valued columns with its sparse per-row scatter; under
// AVX2 and AVX-512 a unit-row fit (every live row h = 1, w = 1) goes
// through the kernel's 4-lane or 8-lane instantiation. Every fitted tree
// must be bit-identical under every target, so each case fingerprints the
// same fit under each one the host runs. Each kernel alone is checked
// against the scatter's offer sequence on hand-built nodes, and the Isa
// ops it is built from op by op against their scalar meaning.
//
// Separate test binary: these tests force the process-global dispatch
// target.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "anb/anb/pipeline.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/tree.hpp"
#include "anb/util/io.hpp"
#include "anb/util/rng.hpp"
#include "anb/util/simd.hpp"
#include "scratch_path.hpp"
#include "split_kernels.hpp"

namespace anb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every dispatch target the tree builder distinguishes that this CPU
/// can run, the scalar one first.
std::vector<simd::Target> builder_targets() {
  std::vector<simd::Target> targets;
  for (const simd::Target target :
       {simd::Target::kScalar, simd::Target::kAvx2, simd::Target::kAvx512})
    if (simd::cpu_supports(target)) targets.push_back(target);
  return targets;
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

/// Runs `fit` under the scalar target and under every vector target the
/// host runs and demands the same fingerprint.
template <class Fit>
void expect_targets_agree(Fit fit, const char* label) {
  const std::vector<simd::Target> targets = builder_targets();
  if (targets.size() < 2) GTEST_SKIP() << "no vector target on this host";
  std::uint64_t scalar = 0;
  {
    simd::ScopedTarget st(simd::Target::kScalar);
    scalar = fit();
  }
  for (std::size_t i = 1; i < targets.size(); ++i) {
    simd::ScopedTarget st(targets[i]);
    EXPECT_EQ(scalar, fit())
        << label << " target " << simd::target_name(targets[i]);
  }
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
    for (const simd::Target target : builder_targets()) {
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
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> specials = {
      {-0.0}, {-0.0, -0.0, 0.5}, {kInf}, {-kInf}, {kInf, -kInf},
      {nan},  {-0.0, nan},       {nan, kInf}};
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

TEST(SplitKernelTest, TunedBuildsAreByteIdenticalUnderEveryTarget) {
  // A SMAC-tuned construction end to end: every trial and every refit is
  // a unit-row Gbdt fit whose config samples subsample and colsample, so
  // the vector targets run the split kernel on sampled columns of
  // subsampled rows. MnasNet's encoding is one mask word, FBNet's three.
  for (const SpaceId space : {SpaceId::kMnasNet, SpaceId::kFbnet}) {
    PipelineOptions options;
    options.world_seed = 7;
    options.space = space;
    options.n_archs = 300;
    options.tune = true;
    options.tuning.n_trials = 4;
    const std::string path = scratch_path("split_kernel_tuned_build.anbb");
    std::string scalar;
    for (const simd::Target target : builder_targets()) {
      simd::ScopedTarget st(target);
      construct_benchmark(options).bench.save_binary(path);
      const auto file = io::Buffer::read_file(path);
      std::string bytes(file->data(), file->size());
      if (target == simd::Target::kScalar) {
        scalar = std::move(bytes);
        continue;
      }
      EXPECT_TRUE(bytes == scalar)
          << space_name(space) << " .anbb differs under "
          << simd::target_name(target);
    }
    std::remove(path.c_str());
  }
}

/// A hand-built node for the kernel alone: `words` mask words per row and
/// an ascending subset of the table's rows.
struct KernelCase {
  std::size_t words = 0;
  std::vector<std::uint64_t> masks;  // per row of the whole table
  std::vector<std::uint32_t> rows;   // the node's rows
  std::vector<double> g;             // per node row
  std::vector<std::uint64_t> sampled;
  double lambda = 1.0;
  double min_child_weight = 1.0;
  double min_samples_leaf = 1.0;

  bool holds(std::size_t s, std::size_t t) const {
    return ((masks[rows[s] * words + t / 64] >> (t % 64)) & 1U) != 0;
  }
  void set(std::size_t s, std::size_t t, bool on) {
    std::uint64_t& word = masks[rows[s] * words + t / 64];
    const std::uint64_t bit = std::uint64_t{1} << (t % 64);
    word = on ? word | bit : word & ~bit;
  }
  /// The node's g sum in row order, as the builder forms it.
  double total_g() const {
    double total = 0.0;
    for (const double v : g) total += v;
    return total;
  }
  detail::UnitNode node(double total, double parent_gain,
                        const std::uint64_t* sampled_words) const {
    detail::UnitNode n;
    n.rows = rows.data();
    n.g = g.data();
    n.size = rows.size();
    n.masks = masks.data();
    n.words = words;
    n.sampled = sampled_words;
    n.total_g = total;
    n.parent_gain = parent_gain;
    n.lambda = lambda;
    n.min_child_weight = min_child_weight;
    n.min_samples_leaf = min_samples_leaf;
    return n;
  }
};

KernelCase random_case(std::size_t words, std::uint32_t num_rows,
                       std::uint64_t seed) {
  KernelCase c;
  c.words = words;
  Rng rng(seed);
  c.masks.resize(std::size_t{num_rows} * words);
  for (auto& m : c.masks) m = rng() & rng();  // about a quarter of bits set
  for (std::uint32_t r = 0; r < num_rows;
       r += 1 + static_cast<std::uint32_t>(r % 3 == 0)) {
    c.rows.push_back(r);
    c.g.push_back(rng.normal() * (r % 7 == 0 ? 1e6 : 1.0));
  }
  c.sampled.assign(words, ~std::uint64_t{0});
  return c;
}

/// Column t's candidate as the scatter forms it: summed row by row in
/// ascending order and scored with score()'s expression; `legal` is
/// whether score() offers it.
struct Candidate {
  bool legal = false;
  double gain = 0.0;
};

Candidate scatter_candidate(const KernelCase& c, std::size_t t, double total_g,
                            double parent_gain) {
  double lg = 0.0;
  double count = 0.0;
  for (std::size_t s = 0; s < c.rows.size(); ++s) {
    if (c.holds(s, t)) {
      lg += c.g[s];
      count += 1.0;
    }
  }
  const double n = static_cast<double>(c.rows.size());
  const double rg = total_g - lg;
  const double rh = n - count;
  Candidate out;
  out.legal = count > 0.0 && count < n && count >= c.min_child_weight &&
              rh >= c.min_child_weight && count >= c.min_samples_leaf &&
              rh >= c.min_samples_leaf;
  out.gain = lg * lg / (count + c.lambda) + rg * rg / (rh + c.lambda) -
             parent_gain;
  return out;
}

/// The scatter's offer sequence: every sampled legal candidate offered in
/// ascending column order under offer()'s rule to an empty best.
detail::UnitBest scatter_best(const KernelCase& c,
                              const std::uint64_t* sampled, double total_g,
                              double parent_gain) {
  double best_gain = -kInf;
  int best_column = -1;
  for (std::size_t t = 0; t < 64 * c.words; ++t) {
    if (((sampled[t / 64] >> (t % 64)) & 1U) == 0) continue;
    const Candidate cand = scatter_candidate(c, t, total_g, parent_gain);
    if (!cand.legal) continue;
    const int column = static_cast<int>(t);
    if (cand.gain > best_gain ||
        (cand.gain == best_gain && column < best_column)) {
      best_gain = cand.gain;
      best_column = column;
    }
  }
  detail::UnitBest best;
  if (best_column >= 0) {
    best.gain = best_gain;
    best.column = static_cast<std::size_t>(best_column);
  }
  return best;
}

/// The kernel's best against the scatter's, for the case's sampled
/// columns and for each sampled column alone (which checks every
/// column's gain and legality bit for bit). Returns the kernel's best.
detail::UnitBest expect_kernel_matches(detail::UnitSplitFn kernel,
                                       const KernelCase& c, double total_g,
                                       double parent_gain, const char* label) {
  auto same = [&](const detail::UnitBest& want, const detail::UnitBest& got,
                  std::size_t only) {
    EXPECT_EQ(want.column, got.column) << label << " only=" << only;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want.gain),
              std::bit_cast<std::uint64_t>(got.gain))
        << label << " only=" << only;
  };
  const detail::UnitBest got =
      kernel(c.node(total_g, parent_gain, c.sampled.data()));
  same(scatter_best(c, c.sampled.data(), total_g, parent_gain), got,
       detail::UnitBest::kNoColumn);
  for (std::size_t t = 0; t < 64 * c.words; ++t) {
    if (((c.sampled[t / 64] >> (t % 64)) & 1U) == 0) continue;
    std::vector<std::uint64_t> one(c.words, 0);
    one[t / 64] = std::uint64_t{1} << (t % 64);
    same(scatter_best(c, one.data(), total_g, parent_gain),
         kernel(c.node(total_g, parent_gain, one.data())), t);
  }
  return got;
}

/// The split kernel of a vector target, or nullptr where the host cannot
/// run it or the toolchain could not build it.
detail::UnitSplitFn kernel_for(simd::Target target) {
  if (!simd::cpu_supports(target)) return nullptr;
  return target == simd::Target::kAvx512 ? detail::avx512_unit_split_kernel()
                                         : detail::avx2_unit_split_kernel();
}

/// The kernel-direct cases, once per vector instantiation.
class SplitKernelDirectTest : public ::testing::TestWithParam<simd::Target> {
 protected:
  void SetUp() override {
    kernel_ = kernel_for(GetParam());
    if (kernel_ == nullptr)
      GTEST_SKIP() << "no " << simd::target_name(GetParam())
                   << " split kernel on this host";
  }
  detail::UnitSplitFn kernel_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(
    Targets, SplitKernelDirectTest,
    ::testing::Values(simd::Target::kAvx2, simd::Target::kAvx512),
    [](const ::testing::TestParamInfo<simd::Target>& param) {
      return std::string(simd::target_name(param.param));
    });

TEST_P(SplitKernelDirectTest, KernelMatchesTheScatterOnOneNode) {
  // 3 mask words, an ascending subset of 900 rows, sampled columns in
  // every word.
  const detail::UnitSplitFn kernel = kernel_;
  KernelCase c = random_case(3, 900, 10);
  c.g[0] = -0.0;
  // Column 0 holds every row of the node, so its byte lane counts past
  // 255. Columns 2 and 3 hold one row fewer than min_child_weight (60)
  // and exactly as many.
  for (std::size_t s = 0; s < c.rows.size(); ++s) {
    c.set(s, 0, true);
    c.set(s, 2, s < 59);
    c.set(s, 3, s < 60);
  }
  Rng rng(11);
  c.sampled = {~std::uint64_t{0}, rng(), 0x00000000FFFF0001ULL};
  c.min_child_weight = 60.0;
  c.min_samples_leaf = 2.0;
  const double total_g = c.total_g();
  const double parent_gain =
      total_g * total_g / (static_cast<double>(c.rows.size()) + c.lambda);
  EXPECT_FALSE(scatter_candidate(c, 0, total_g, parent_gain).legal);
  EXPECT_FALSE(scatter_candidate(c, 2, total_g, parent_gain).legal);
  EXPECT_TRUE(scatter_candidate(c, 3, total_g, parent_gain).legal);
  const detail::UnitBest best =
      expect_kernel_matches(kernel, c, total_g, parent_gain, "random");
  EXPECT_NE(best.column, detail::UnitBest::kNoColumn);
}

TEST_P(SplitKernelDirectTest, KernelKeepsTheFirstOfTiedGains) {
  const detail::UnitSplitFn kernel = kernel_;
  // Columns 5, 9, 70 and 130 hold the same rows, the only ones with a
  // large gradient, so their gains tie at the maximum: the lowest sampled
  // one must win, in any word.
  KernelCase c = random_case(3, 600, 12);
  for (std::size_t s = 0; s < c.rows.size(); ++s) {
    const bool signal = s % 5 == 0;
    c.g[s] = signal ? 40.0 : 0.1 * static_cast<double>(s % 3) - 0.1;
    for (const std::size_t t : {5, 9, 70, 130}) c.set(s, t, signal);
  }
  const double total_g = c.total_g();
  const double parent_gain =
      total_g * total_g / (static_cast<double>(c.rows.size()) + c.lambda);
  const std::uint64_t all = ~std::uint64_t{0};
  const std::vector<std::pair<std::vector<std::uint64_t>, std::size_t>>
      cases = {{{all, all, all}, 5},
               {{all & ~(std::uint64_t{1} << 5), all, all}, 9},
               {{0, all, all}, 70},
               {{0, 0, all}, 130}};
  for (const auto& [sampled, want] : cases) {
    c.sampled = sampled;
    const detail::UnitBest best =
        expect_kernel_matches(kernel, c, total_g, parent_gain, "ties");
    EXPECT_EQ(best.column, want);
  }
}

TEST_P(SplitKernelDirectTest, KernelKeepsTheFirstOfSignedZeroGains) {
  const detail::UnitSplitFn kernel = kernel_;
  // Every g is +0.0, so every legal gain is a signed zero. With lambda
  // -400 both leaf denominators are negative for a column holding 201 to
  // 399 of the node's 600 rows, whose gain is then -0.0 - (+0.0) = -0.0;
  // every other column's is +0.0. The two compare equal, so the first
  // legal column wins whatever its sign (score() never sees a negative
  // lambda, but the kernel's tie rule must not depend on that).
  KernelCase c = random_case(2, 900, 13);
  ASSERT_EQ(c.rows.size(), 600u);
  std::fill(c.g.begin(), c.g.end(), 0.0);
  for (std::size_t s = 0; s < c.rows.size(); ++s) {
    c.set(s, 3, s < 300);  // -0.0
    c.set(s, 4, s < 20);   // +0.0
    c.set(s, 6, s < 350);  // -0.0
  }
  c.lambda = -400.0;
  c.sampled = {0x58, 0};  // columns 3, 4 and 6
  const detail::UnitBest negative =
      expect_kernel_matches(kernel, c, 0.0, 0.0, "-0.0 first");
  EXPECT_EQ(negative.column, 3u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(negative.gain),
            std::bit_cast<std::uint64_t>(-0.0));
  c.sampled = {0x50, 0};  // columns 4 and 6
  const detail::UnitBest positive =
      expect_kernel_matches(kernel, c, 0.0, 0.0, "+0.0 first");
  EXPECT_EQ(positive.column, 4u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(positive.gain),
            std::bit_cast<std::uint64_t>(0.0));
  c.sampled = {~std::uint64_t{0}, ~std::uint64_t{0}};
  expect_kernel_matches(kernel, c, 0.0, 0.0, "every column");
}

TEST_P(SplitKernelDirectTest, KernelSkipsNanAndTakesInfiniteGains) {
  const detail::UnitSplitFn kernel = kernel_;
  // The node's total is given, finite, so only the columns holding a
  // special row see it: +inf or -inf alone makes an inf gain, both or a
  // NaN make a NaN gain, which never wins.
  KernelCase c = random_case(1, 300, 14);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double total_g = c.total_g();
  const double parent_gain =
      total_g * total_g / (static_cast<double>(c.rows.size()) + c.lambda);
  c.g[10] = nan;
  c.g[20] = kInf;
  c.g[30] = -kInf;
  for (std::size_t s = 0; s < c.rows.size(); ++s) {
    for (std::size_t t = 8; t < 16; ++t) c.set(s, t, s % 2 == 0);
  }
  // 8: NaN; 9: +inf and -inf; 10: NaN and +inf; 11: -inf; 12: +inf.
  for (const std::size_t t : {8, 9, 10, 11, 12, 13}) {
    c.set(10, t, t == 8 || t == 10);
    c.set(20, t, t == 9 || t == 10 || t == 12);
    c.set(30, t, t == 9 || t == 11);
  }
  EXPECT_TRUE(std::isnan(scatter_candidate(c, 8, total_g, parent_gain).gain));
  EXPECT_TRUE(std::isnan(scatter_candidate(c, 9, total_g, parent_gain).gain));
  EXPECT_EQ(scatter_candidate(c, 11, total_g, parent_gain).gain, kInf);
  c.sampled = {0xFF00};
  EXPECT_EQ(expect_kernel_matches(kernel, c, total_g, parent_gain, "inf")
                .column,
            11u);
  c.sampled = {0x0700};  // columns 8-10: NaN only
  EXPECT_EQ(expect_kernel_matches(kernel, c, total_g, parent_gain, "nan")
                .column,
            detail::UnitBest::kNoColumn);
  // A NaN total: every gain is NaN, and the node offers nothing.
  c.sampled = {~std::uint64_t{0}};
  EXPECT_EQ(
      expect_kernel_matches(kernel, c, nan, parent_gain, "nan total").column,
      detail::UnitBest::kNoColumn);
}

TEST_P(SplitKernelDirectTest, KernelSkipsGroupsWithEveryRowOnOneSide) {
  const detail::UnitSplitFn kernel = kernel_;
  // Columns 4-7 hold every row of the node and 8-11 none, in the first
  // and in the second half of a word: no candidate of these groups is
  // legal, so the kernel skips them, and a node sampling only them
  // offers nothing.
  KernelCase c = random_case(2, 500, 15);
  for (std::size_t s = 0; s < c.rows.size(); ++s) {
    for (std::size_t t = 4; t < 8; ++t) {
      c.set(s, t, true);
      c.set(s, t + 4, false);
      c.set(s, 64 + 32 + t, true);
      c.set(s, 64 + 32 + t + 4, false);
    }
  }
  const double total_g = c.total_g();
  const double parent_gain =
      total_g * total_g / (static_cast<double>(c.rows.size()) + c.lambda);
  c.sampled = {0xFF0, std::uint64_t{0xFF0} << 32};
  EXPECT_EQ(
      expect_kernel_matches(kernel, c, total_g, parent_gain, "one side").column,
      detail::UnitBest::kNoColumn);
  c.sampled = {~std::uint64_t{0}, ~std::uint64_t{0}};
  EXPECT_NE(
      expect_kernel_matches(kernel, c, total_g, parent_gain, "mixed").column,
      detail::UnitBest::kNoColumn);
}

/// Bitwise equality of two probe results, op by op.
void expect_probes_equal(const detail::IsaProbe& want,
                         const detail::IsaProbe& got, const char* label) {
  ASSERT_EQ(want.lanes, got.lanes) << label;
  const std::size_t f64 = sizeof(double) * static_cast<std::size_t>(got.lanes);
  auto same = [&](const void* a, const void* b, std::size_t bytes,
                  const char* op) {
    EXPECT_EQ(0, std::memcmp(a, b, bytes)) << label << " op=" << op;
  };
  same(want.zero, got.zero, f64, "d_zero");
  same(want.splat, got.splat, f64, "d_splat");
  same(want.add, got.add, f64, "d_add");
  same(want.sub, got.sub, f64, "d_sub");
  same(want.mul, got.mul, f64, "d_mul");
  same(want.div, got.div, f64, "d_div");
  same(want.from_u8, got.from_u8, f64, "d_from_u8");
  same(want.select, got.select, f64, "d_select");
  EXPECT_EQ(want.ge, got.ge) << label << " op=d_cmpge";
  EXPECT_EQ(want.gt, got.gt) << label << " op=d_cmpgt";
  EXPECT_EQ(want.conj, got.conj) << label << " op=m_and";
  for (int k = 0; k < 64 / got.lanes; ++k) {
    same(want.add_kept[k], got.add_kept[k], f64, "d_add_kept");
    EXPECT_EQ(want.lanes_of[k], got.lanes_of[k])
        << label << " op=m_lanes k=" << k;
  }
  same(want.count, got.count, 8 * static_cast<std::size_t>(got.lanes),
       "c_add_bits");
  if (!got.has_bytes) return;
  same(want.bsplat, got.bsplat, sizeof want.bsplat, "b_splat");
  same(want.bones, got.bones, sizeof want.bones, "b_ones");
  same(want.bits_lo, got.bits_lo, sizeof want.bits_lo, "b_bits(lo)");
  same(want.bits_hi, got.bits_hi, sizeof want.bits_hi, "b_bits(hi)");
  same(want.bsub, got.bsub, sizeof want.bsub, "b_sub");
  same(want.band, got.band, sizeof want.band, "b_and");
  same(want.bor, got.bor, sizeof want.bor, "b_or");
  same(want.blt, got.blt, sizeof want.blt, "b_cmplt_s8");
}

/// Runs `vector` and the scalar meaning `Scalar` (the BasicScalarIsa of
/// the same f64 lane count) on random and special inputs and demands the
/// same bits from every op.
template <class Scalar>
void expect_ops_match(detail::IsaProbeFn vector, const char* label) {
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
    for (int j = 0; j < detail::IsaProbe::kMaxLanes; ++j) {
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
    detail::kernels::probe_isa<Scalar>(want);
    vector(got);
    expect_probes_equal(want, got, label);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(SimdOpsTest, Avx2OpsMatchScalarIsa) {
  const detail::IsaProbeFn avx2 = detail::avx2_isa_probe();
  if (!simd::cpu_supports(simd::Target::kAvx2) || avx2 == nullptr)
    GTEST_SKIP() << "no AVX2 build of the Isa ops on this host";
  expect_ops_match<simd::ScalarIsa>(avx2, "avx2");
}

TEST(SimdOpsTest, Avx512OpsMatchScalarIsa) {
  const detail::IsaProbeFn avx512 = detail::avx512_isa_probe();
  if (!simd::cpu_supports(simd::Target::kAvx512) || avx512 == nullptr)
    GTEST_SKIP() << "no AVX-512 build of the Isa ops on this host";
  expect_ops_match<simd::BasicScalarIsa<8>>(avx512, "avx512");
}

}  // namespace
}  // namespace anb
