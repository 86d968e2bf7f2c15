// Golden fingerprints of the exact-greedy tree builder. Each case fits a
// tree (or a whole Gbdt, RandomForest or HistGbdt) on a seeded dataset and
// hashes every node bit for bit, plus the caller's rng position afterwards.
// The first two lists were recorded from the original full-column scan and
// the third from the column-major scan that preceded the node-major pass
// (the two HistGbdt fits were recorded later, before the tree builders
// wrote FlatNode arrays directly), so any change to the split search that
// is not bit-identical (a re-associated gradient sum, a different candidate
// order, a different tie-break or rng consumption) fails here. If a
// deliberate model change lands, regenerate by pasting the "actual" values
// from the failure output. Every list is checked under each dispatch target
// this CPU runs: the scalar target sums two-valued columns with the
// builder's scatter, and AVX2 and AVX-512 run unit-row fits through the
// split kernel's 4-lane and 8-lane instantiations (split_kernels.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/tree.hpp"
#include "anb/util/rng.hpp"
#include "anb/util/simd.hpp"

namespace anb {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
};

/// MnasNet-shaped rows: 7 blocks of one-hot {3, 2, 3} choices plus a
/// binary flag, the two-valued layout every search-space encoding uses.
Dataset onehot_dataset(int n, std::uint64_t seed) {
  constexpr int kBlocks = 7;
  Dataset ds(kBlocks * 9);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x;
    double y = 0.0;
    for (int b = 0; b < kBlocks; ++b) {
      const auto e = rng.uniform_index(3);
      const auto k = rng.uniform_index(2);
      const auto l = rng.uniform_index(3);
      const bool se = rng.bernoulli(0.5);
      for (std::uint64_t o = 0; o < 3; ++o) x.push_back(e == o ? 1.0 : 0.0);
      for (std::uint64_t o = 0; o < 2; ++o) x.push_back(k == o ? 1.0 : 0.0);
      for (std::uint64_t o = 0; o < 3; ++o) x.push_back(l == o ? 1.0 : 0.0);
      x.push_back(se ? 1.0 : 0.0);
      y += 0.3 * static_cast<double>(e) * static_cast<double>(l + 1) -
           0.2 * static_cast<double>(k) + (se ? 0.15 : 0.0) * (b % 3);
    }
    ds.add(x, y + 0.05 * rng.normal());
  }
  return ds;
}

/// Continuous, tied, multi-level, binary, constant and negative columns.
Dataset mixed_dataset(int n, std::uint64_t seed) {
  Dataset ds(8);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(8);
    x[0] = rng.uniform();
    x[1] = static_cast<double>(static_cast<int>(rng.uniform() * 10.0)) / 10.0;
    x[2] = static_cast<double>(rng.uniform_index(4));
    x[3] = rng.bernoulli(0.8) ? 1.0 : 0.0;  // 1 is the majority
    x[4] = 2.5;                              // constant
    x[5] = -rng.uniform() * 3.0;
    x[6] = rng.bernoulli(0.1) ? -1.0 : 0.0;  // minority below the mode
    x[7] = rng.normal();
    const double y = 2.0 * x[0] - x[1] * x[2] + 1.5 * x[3] - 0.7 * x[5] +
                     3.0 * x[6] + 0.1 * x[7] + 0.1 * rng.normal();
    ds.add(x, y);
  }
  return ds;
}

/// FBNet-shaped rows: 22 layers of one-hot 7-way choices, 154 0/1
/// columns, so a row's mask of two-valued columns spans three words.
Dataset fbnet_dataset(int n, std::uint64_t seed) {
  constexpr int kLayers = 22;
  constexpr int kChoices = 7;
  Dataset ds(kLayers * kChoices);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x;
    double y = 0.0;
    for (int l = 0; l < kLayers; ++l) {
      const auto c = rng.uniform_index(kChoices);
      for (std::uint64_t o = 0; o < kChoices; ++o)
        x.push_back(c == o ? 1.0 : 0.0);
      y += 0.1 * static_cast<double>(c) * static_cast<double>(l % 4 + 1) -
           (c == 3 ? 0.4 : 0.0);
    }
    ds.add(x, y + 0.05 * rng.normal());
  }
  return ds;
}

/// 72 two-valued columns (0/1 and {-1, 2} pairs, some all-low-majority)
/// interleaved with multi-valued and constant columns.
Dataset wide_mixed_dataset(int n, std::uint64_t seed) {
  constexpr int kGroups = 12;
  Dataset ds(kGroups * 8);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x;
    double y = 0.0;
    for (int gi = 0; gi < kGroups; ++gi) {
      const auto c = rng.uniform_index(4);
      for (std::uint64_t o = 0; o < 4; ++o) x.push_back(c == o ? 1.0 : 0.0);
      const double level = static_cast<double>(rng.uniform_index(5)) * 0.5;
      x.push_back(level);
      x.push_back(rng.bernoulli(0.3) ? 2.0 : -1.0);
      x.push_back(gi % 5 == 0 ? 1.5 : rng.uniform());  // constant or not
      x.push_back(rng.bernoulli(0.9) ? 1.0 : 0.0);
      y += 0.2 * static_cast<double>(c) * (gi % 3 == 0 ? -1.0 : 1.0) +
           0.3 * level * x[x.size() - 2] + 0.1 * x[x.size() - 3];
    }
    ds.add(x, y + 0.05 * rng.normal());
  }
  return ds;
}

enum class Weights { kUnit, kBernoulli, kBootstrap };

std::uint64_t tree_fingerprint(const Dataset& data, TreeParams params,
                               Weights weights, bool unit_hessian,
                               std::uint64_t seed) {
  const std::size_t n = data.size();
  Rng rng(seed);
  std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = 0.3 - data.target(i);
    if (!unit_hessian) h[i] = 0.25 + rng.uniform();
  }
  if (weights == Weights::kBernoulli) {
    for (auto& v : w) v = rng.bernoulli(0.7) ? 1.0 : 0.0;
  } else if (weights == Weights::kBootstrap) {
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t s = 0; s < n; ++s) w[rng.uniform_index(n)] += 1.0;
  }
  const ColumnIndex columns(data);
  const std::vector<FlatNode> tree =
      build_tree(data, columns, g, h, w, params, rng);
  // Hashed as (feature, threshold, left, right, value) with a leaf, the
  // self-looping node, as (-1, 0, -1, -1, value): the recorded form.
  Fnv fnv;
  for (int i = 0; i < static_cast<int>(tree.size()); ++i) {
    const FlatNode& node = tree[static_cast<std::size_t>(i)];
    const bool leaf = node.left == i && node.right == i;
    fnv.add(leaf ? -1 : node.feature);
    fnv.add(leaf ? 0.0 : node.split);
    fnv.add(leaf ? -1 : node.left);
    fnv.add(leaf ? -1 : node.right);
    fnv.add(leaf ? node.split : 0.0);
  }
  fnv.add(rng());  // pins how much randomness the build consumed
  return fnv.h;
}

template <typename Model>
std::uint64_t model_fingerprint(Model model, const Dataset& data,
                                std::uint64_t seed) {
  Rng rng(seed);
  model.fit(data, rng);
  Fnv fnv;
  fnv.add(model.to_json().dump());
  fnv.add(rng());
  return fnv.h;
}

std::vector<std::uint64_t> tree_fingerprints() {
  const Dataset onehot = onehot_dataset(700, 11);
  const Dataset mixed = mixed_dataset(500, 12);
  std::vector<std::uint64_t> out;
  for (const Dataset* data : {&onehot, &mixed}) {
    TreeParams deep;  // variance tree, grown until rows run out
    deep.max_depth = 12;
    deep.lambda = 0.0;
    deep.gamma = 1e-12;
    deep.min_child_weight = 0.0;
    out.push_back(tree_fingerprint(*data, deep, Weights::kUnit, true, 1));

    TreeParams boost;  // boosting-style: subsampled rows and features
    boost.max_depth = 5;
    boost.features_per_node = 20;
    out.push_back(tree_fingerprint(*data, boost, Weights::kBernoulli, true, 2));

    TreeParams forest;  // forest-style: bootstrap multiplicities
    forest.max_depth = 14;
    forest.lambda = 0.0;
    forest.gamma = 1e-12;
    forest.min_child_weight = 0.0;
    forest.min_samples_leaf = 3.0;
    forest.features_per_node = 6;
    out.push_back(tree_fingerprint(*data, forest, Weights::kBootstrap, true, 3));

    TreeParams hessian;  // non-constant hessians against min_child_weight
    hessian.max_depth = 6;
    hessian.lambda = 2.0;
    hessian.gamma = 0.01;
    hessian.min_child_weight = 25.0;
    out.push_back(tree_fingerprint(*data, hessian, Weights::kBernoulli, false, 4));

    TreeParams stump;
    stump.max_depth = 1;
    out.push_back(tree_fingerprint(*data, stump, Weights::kUnit, false, 5));
  }
  return out;
}

std::vector<std::uint64_t> model_fingerprints() {
  const Dataset onehot = onehot_dataset(900, 21);
  const Dataset mixed = mixed_dataset(600, 22);
  std::vector<std::uint64_t> out;
  for (const Dataset* data : {&onehot, &mixed}) {
    GbdtParams sampled;
    sampled.n_estimators = 60;
    sampled.max_depth = 4;
    sampled.subsample = 0.8;
    sampled.colsample = 0.6;
    out.push_back(model_fingerprint(Gbdt(sampled), *data, 31));

    GbdtParams plain;
    plain.n_estimators = 40;
    plain.max_depth = 6;
    out.push_back(model_fingerprint(Gbdt(plain), *data, 32));

    RandomForestParams rf;
    rf.n_trees = 16;
    rf.max_depth = 12;
    out.push_back(model_fingerprint(RandomForest(rf), *data, 33));
  }
  // Histogram boosting, bagged and feature-sampled on the one-hot rows and
  // plain on the mixed ones.
  HistGbdtParams hist_sampled;
  hist_sampled.n_estimators = 50;
  hist_sampled.subsample = 0.7;
  hist_sampled.colsample = 0.6;
  out.push_back(model_fingerprint(HistGbdt(hist_sampled), onehot, 34));
  HistGbdtParams hist_plain;
  hist_plain.n_estimators = 40;
  hist_plain.max_leaves = 12;
  out.push_back(model_fingerprint(HistGbdt(hist_plain), mixed, 35));
  return out;
}

/// Multi-word row masks, more than 64 two-valued columns mixed with
/// multi-valued ones, and bootstrap weights with 8 features per node.
std::vector<std::uint64_t> wide_fingerprints() {
  const Dataset fbnet = fbnet_dataset(600, 41);
  const Dataset wide = wide_mixed_dataset(500, 42);
  const Dataset onehot = onehot_dataset(700, 43);
  std::vector<std::uint64_t> out;
  for (const Dataset* data : {&fbnet, &wide, &onehot}) {
    TreeParams deep;
    deep.max_depth = 12;
    deep.lambda = 0.0;
    deep.gamma = 1e-12;
    deep.min_child_weight = 0.0;
    out.push_back(tree_fingerprint(*data, deep, Weights::kUnit, true, 1));

    TreeParams forest;  // bootstrap weights, 8 sampled features per node
    forest.max_depth = 14;
    forest.lambda = 0.0;
    forest.gamma = 1e-12;
    forest.min_child_weight = 0.0;
    forest.features_per_node = 8;
    out.push_back(tree_fingerprint(*data, forest, Weights::kBootstrap, true, 2));

    TreeParams boost;
    boost.max_depth = 6;
    boost.lambda = 1.5;
    boost.features_per_node = 70;
    out.push_back(tree_fingerprint(*data, boost, Weights::kBernoulli, false, 3));
  }
  for (const Dataset* data : {&fbnet, &wide}) {
    GbdtParams sampled;
    sampled.n_estimators = 30;
    sampled.max_depth = 5;
    sampled.subsample = 0.8;
    sampled.colsample = 0.7;
    out.push_back(model_fingerprint(Gbdt(sampled), *data, 51));

    RandomForestParams rf;
    rf.n_trees = 8;
    rf.max_depth = 14;
    out.push_back(model_fingerprint(RandomForest(rf), *data, 52));
  }
  return out;
}

std::string hex_list(const std::vector<std::uint64_t>& values) {
  std::string s;
  char buf[32];
  for (const std::uint64_t v : values) {
    std::snprintf(buf, sizeof(buf), "0x%016llxULL,\n",
                  static_cast<unsigned long long>(v));
    s += buf;
  }
  return s;
}

/// Checks `fingerprints()` against `expected` under every dispatch target
/// the tree builder distinguishes and this CPU can run.
template <class Fingerprints>
void expect_under_every_target(const std::vector<std::uint64_t>& expected,
                               Fingerprints fingerprints) {
  for (const simd::Target target :
       {simd::Target::kScalar, simd::Target::kAvx2, simd::Target::kAvx512}) {
    if (!simd::cpu_supports(target)) continue;
    simd::ScopedTarget scoped(target);
    const auto actual = fingerprints();
    EXPECT_EQ(actual, expected) << "target " << simd::target_name(target)
                                << ", actual:\n" << hex_list(actual);
  }
}

TEST(TreeGoldenTest, SingleTreesMatchRecordedFingerprints) {
  const std::vector<std::uint64_t> expected{
      0x30ae21956df812eeULL, 0x3acf8e0188b06a4dULL, 0x46397af6d04af31aULL,
      0x945de8321c19af49ULL, 0x01b322cc154c5876ULL, 0xa7484e81590b9a66ULL,
      0x53a4608f74bfc4b6ULL, 0x222bdf788602ca09ULL, 0x3f80ddb5feef1ddaULL,
      0xdf7340ed7a95cb96ULL,
  };
  expect_under_every_target(expected, tree_fingerprints);
}

TEST(TreeGoldenTest, FittedModelsMatchRecordedFingerprints) {
  const std::vector<std::uint64_t> expected{
      0x142710a41712de97ULL, 0x211b41230ccfde26ULL, 0x37bfea139c1df218ULL,
      0x346fa64313927a67ULL, 0x3e905155f664c7d4ULL, 0x4eeac907da49eac3ULL,
      0xa902a32545a27131ULL, 0xfb43cb35d9c291f9ULL,
  };
  expect_under_every_target(expected, model_fingerprints);
}

TEST(TreeGoldenTest, WideAndMixedTreesMatchRecordedFingerprints) {
  const std::vector<std::uint64_t> expected{
      0xfbc36b804f62e035ULL, 0x2906a55e41009229ULL, 0xe71af22c4589aa38ULL,
      0x86d011701aaa66a0ULL, 0x267012cda0fe3f85ULL, 0xabad32ce1e0e1ab8ULL,
      0x75d9f102bf41fd73ULL, 0x879c5e5e7450f536ULL, 0xdb5ce12d1ddc0496ULL,
      0x32e1e499dec5b702ULL, 0x32a2dd7142845647ULL, 0xad7f02217cb15656ULL,
      0x931831fd26071733ULL,
  };
  expect_under_every_target(expected, wide_fingerprints);
}

}  // namespace
}  // namespace anb
