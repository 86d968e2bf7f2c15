#include "anb/surrogate/hist_gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "anb/surrogate/train_context.hpp"
#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/stats.hpp"
#include "serialize.hpp"

namespace anb {

namespace {

struct HistCell {
  double g = 0.0, h = 0.0, w = 0.0;
};

struct SplitCandidate {
  double gain = -std::numeric_limits<double>::infinity();
  int feature = -1;
  int bin = -1;  ///< rows with bin <= `bin` go left
};

double leaf_gain(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

/// A growable leaf during best-first construction.
struct Leaf {
  int node_id = 0;
  std::vector<std::uint32_t> rows;
  double g = 0.0, h = 0.0, w = 0.0;
  std::vector<HistCell> hist;  // [feature * max_hist_bins + bin]
  SplitCandidate best;
};

/// Minimum per-leaf work (cells touched) before histogram construction
/// fans out across features. A parallel_for call wakes pool helpers and
/// waits for them to leave, so small leaves run inline; either path
/// produces identical bits — each histogram cell receives its
/// contributions in leaf-row order regardless.
constexpr std::size_t kMinParallelHistWork = 1u << 16;

}  // namespace

HistGbdt::HistGbdt(HistGbdtParams params) : params_(std::move(params)) {
  ANB_CHECK(params_.n_estimators >= 1, "HistGbdt: n_estimators must be >= 1");
  ANB_CHECK(params_.learning_rate > 0.0 && params_.learning_rate <= 1.0,
            "HistGbdt: learning_rate must be in (0, 1]");
  ANB_CHECK(params_.max_leaves >= 2, "HistGbdt: max_leaves must be >= 2");
  ANB_CHECK(params_.max_bins >= 2 && params_.max_bins <= 256,
            "HistGbdt: max_bins must be in [2, 256]");
  ANB_CHECK(params_.subsample > 0.0 && params_.subsample <= 1.0,
            "HistGbdt: subsample must be in (0, 1]");
  ANB_CHECK(params_.colsample > 0.0 && params_.colsample <= 1.0,
            "HistGbdt: colsample must be in (0, 1]");
}

void HistGbdt::fit(const Dataset& train, Rng& rng) {
  ANB_CHECK(train.size() >= 2, "HistGbdt::fit: need at least 2 rows");
  const BinnedMatrix binned(train, params_.max_bins);
  fit(train, binned, rng);
}

void HistGbdt::fit(const Dataset& train, TrainContext& ctx, Rng& rng) {
  ANB_CHECK(&ctx.data() == &train,
            "HistGbdt::fit: context built for a different dataset");
  ANB_CHECK(train.size() >= 2, "HistGbdt::fit: need at least 2 rows");
  fit(train, ctx.bins(params_.max_bins), rng);
}

void HistGbdt::fit(const Dataset& train, const BinnedMatrix& binned,
                   Rng& rng) {
  ANB_CHECK(train.size() >= 2, "HistGbdt::fit: need at least 2 rows");
  ANB_CHECK(binned.num_rows() == train.size() &&
                binned.num_features() == train.num_features(),
            "HistGbdt::fit: bin matrix shape mismatch");
  ANB_CHECK(binned.max_bins() == params_.max_bins,
            "HistGbdt::fit: bin matrix built with a different max_bins");
  ANB_SPAN("anb.fit.histgbdt");
  obs::counter("anb.fit.histgbdt.count").add(1);
  const std::size_t n = train.size();
  const std::size_t d = train.num_features();

  const auto max_hist_bins = static_cast<std::size_t>(binned.max_hist_bins());
  const std::size_t hist_size = d * max_hist_bins;

  base_score_ = mean(train.targets());
  std::vector<double> pred(n, base_score_);
  std::vector<double> g(n), h(n, 1.0);

  // Per-feature split scan over a finished histogram. Bit-for-bit the same
  // scan as a serial pass: bins ascend within the feature, ties keep the
  // lowest bin (strict >).
  auto scan_feature = [&](const Leaf& leaf, std::size_t f,
                          double parent_gain) {
    SplitCandidate best;
    const int nb = binned.num_bins(f);
    const HistCell* cells = leaf.hist.data() + f * max_hist_bins;
    double gl = 0.0, hl = 0.0, wl = 0.0;
    for (int b = 0; b + 1 < nb; ++b) {
      const HistCell& cell = cells[b];
      gl += cell.g;
      hl += cell.h;
      wl += cell.w;
      const double gr = leaf.g - gl;
      const double hr = leaf.h - hl;
      if (hl < params_.min_child_weight || hr < params_.min_child_weight)
        continue;
      if (wl < 1.0 || leaf.w - wl < 1.0) continue;
      const double gain = leaf_gain(gl, hl, params_.lambda) +
                          leaf_gain(gr, hr, params_.lambda) - parent_gain;
      if (gain > best.gain) best = {gain, static_cast<int>(f), b};
    }
    return best;
  };

  // Reusable per-feature candidate slots for the parallel scan.
  std::vector<SplitCandidate> feature_best(d);

  // Builds `leaf`'s histogram and finds its best split in one pass over the
  // features. With a parent, the histogram is derived by sibling
  // subtraction (parent minus the already-built `sibling`); otherwise it is
  // accumulated from the leaf's rows. Fans out across features when the
  // work is large enough: feature slices are disjoint, and every cell sums
  // its rows in leaf order, so the result is independent of thread count.
  auto build_and_find = [&](Leaf& leaf, const Leaf* parent,
                            const Leaf* sibling,
                            const std::vector<char>& feat_ok) {
    leaf.hist.assign(hist_size, HistCell{});
    const double parent_gain = leaf_gain(leaf.g, leaf.h, params_.lambda);
    auto body = [&](std::size_t f) {
      feature_best[f] = SplitCandidate{};
      if (!feat_ok[f]) return;
      HistCell* cells = leaf.hist.data() + f * max_hist_bins;
      if (parent != nullptr) {
        const HistCell* pc = parent->hist.data() + f * max_hist_bins;
        const HistCell* sc = sibling->hist.data() + f * max_hist_bins;
        for (std::size_t b = 0; b < max_hist_bins; ++b) {
          cells[b].g = pc[b].g - sc[b].g;
          cells[b].h = pc[b].h - sc[b].h;
          cells[b].w = pc[b].w - sc[b].w;
        }
      } else {
        const std::uint8_t* codes = binned.codes(f).data();
        for (std::uint32_t row : leaf.rows) {
          HistCell& cell = cells[codes[row]];
          cell.g += g[row];
          cell.h += h[row];
          cell.w += 1.0;
        }
      }
      feature_best[f] = scan_feature(leaf, f, parent_gain);
    };
    const std::size_t work =
        parent != nullptr ? hist_size : leaf.rows.size() * d;
    if (work >= kMinParallelHistWork) {
      parallel_for(d, body);
    } else {
      for (std::size_t f = 0; f < d; ++f) body(f);
    }
    leaf.best = SplitCandidate{};
    for (std::size_t f = 0; f < d; ++f) {
      if (feature_best[f].gain > leaf.best.gain) leaf.best = feature_best[f];
    }
  };

  std::vector<std::vector<FlatNode>> trees;
  std::vector<int> row_leaf(n);
  trees.reserve(static_cast<std::size_t>(params_.n_estimators));
  for (int t = 0; t < params_.n_estimators; ++t) {
    // Inline, as in Gbdt: too little work to start threads for.
    for (std::size_t i = 0; i < n; ++i) g[i] = pred[i] - train.target(i);

    // Per-tree row bagging and feature sampling (serial: consumes `rng`).
    std::vector<std::uint32_t> root_rows;
    root_rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (params_.subsample >= 1.0 || rng.bernoulli(params_.subsample))
        root_rows.push_back(static_cast<std::uint32_t>(i));
    }
    if (root_rows.empty()) root_rows.push_back(0);
    std::vector<char> feat_ok(d, 1);
    if (params_.colsample < 1.0) {
      std::fill(feat_ok.begin(), feat_ok.end(), 0);
      const auto k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::lround(params_.colsample * static_cast<double>(d))));
      for (std::size_t f : rng.sample_indices(d, k)) feat_ok[f] = 1;
    }

    std::vector<FlatNode>& nodes = trees.emplace_back(1);
    std::vector<Leaf> leaves;  // indexed by heap payload
    auto make_leaf = [&](int node_id, std::vector<std::uint32_t> rows) {
      Leaf leaf;
      leaf.node_id = node_id;
      leaf.rows = std::move(rows);
      for (std::uint32_t row : leaf.rows) {
        leaf.g += g[row];
        leaf.h += h[row];
        leaf.w += 1.0;
      }
      return leaf;
    };

    {
      Leaf root = make_leaf(0, std::move(root_rows));
      build_and_find(root, nullptr, nullptr, feat_ok);
      leaves.push_back(std::move(root));
    }

    // Max-heap of splittable leaves by gain.
    using HeapItem = std::pair<double, std::size_t>;
    std::priority_queue<HeapItem> heap;
    heap.emplace(leaves[0].best.gain, 0);

    int leaf_count = 1;
    while (leaf_count < params_.max_leaves && !heap.empty()) {
      const auto [gain, li] = heap.top();
      heap.pop();
      if (gain <= params_.min_split_gain) break;
      Leaf& leaf = leaves[li];
      const SplitCandidate split = leaf.best;

      // Partition rows on the binned feature.
      const std::uint8_t* split_codes =
          binned.codes(static_cast<std::size_t>(split.feature)).data();
      std::vector<std::uint32_t> left_rows, right_rows;
      for (std::uint32_t row : leaf.rows) {
        const int b = split_codes[row];
        (b <= split.bin ? left_rows : right_rows).push_back(row);
      }
      ANB_ASSERT(!left_rows.empty() && !right_rows.empty(),
                 "HistGbdt: degenerate split");

      // Written before emplace_back, which may reallocate `nodes`.
      const int left_child = static_cast<int>(nodes.size());
      nodes[static_cast<std::size_t>(leaf.node_id)] = {
          binned.edge(static_cast<std::size_t>(split.feature), split.bin),
          split.feature, left_child, left_child + 1};
      nodes.emplace_back();
      nodes.emplace_back();

      Leaf small = make_leaf(left_child, std::move(left_rows));
      Leaf big = make_leaf(left_child + 1, std::move(right_rows));
      if (small.rows.size() > big.rows.size()) std::swap(small, big);

      // Histogram subtraction: build the smaller child, derive the sibling
      // from the parent without a second accumulation pass.
      build_and_find(small, nullptr, nullptr, feat_ok);
      build_and_find(big, &leaf, &small, feat_ok);
      leaf.hist.clear();
      leaf.hist.shrink_to_fit();

      const std::size_t small_idx = li;  // reuse the parent's slot
      leaves[small_idx] = std::move(small);
      leaves.push_back(std::move(big));
      heap.emplace(leaves[small_idx].best.gain, small_idx);
      heap.emplace(leaves.back().best.gain, leaves.size() - 1);
      ++leaf_count;
    }

    // Finalize the leaves (a split reuses its parent's slot in `leaves`,
    // so every entry is one) and update predictions by leaf, as in Gbdt:
    // a fitted row sits in the leaf whose rows hold it, because a code
    // `<= bin` is exactly `x < edge(bin)`; only rows bagging left out walk
    // the tree.
    std::fill(row_leaf.begin(), row_leaf.end(), -1);
    for (const Leaf& leaf : leaves) {
      nodes[static_cast<std::size_t>(leaf.node_id)] = {
          leaf.w > 0.0 ? -leaf.g / (leaf.h + params_.lambda) : 0.0, 0,
          leaf.node_id, leaf.node_id};
      for (const std::uint32_t row : leaf.rows) row_leaf[row] = leaf.node_id;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double value =
          row_leaf[i] >= 0 ? nodes[static_cast<std::size_t>(row_leaf[i])].split
                           : walk_tree(nodes.data(), 0, train.row(i).data());
      pred[i] += params_.learning_rate * value;
    }
  }
  // Histogram training snaps every split to a bin edge, so each feature
  // carries at most max_bins distinct thresholds and the leaf count is
  // capped at max_leaves (default 8): fitted models qualify for the masked
  // SIMD descent engine by construction (DESIGN.md "SIMD descent" — the
  // engine tables are derived lazily from flat_).
  flat_ = FlatForest(trees);
}

void HistGbdt::predict_batch(std::span<const double> rows,
                             std::size_t num_features,
                             std::span<double> out) const {
  ANB_CHECK(!flat_.empty(), "HistGbdt::predict_batch: model not fitted");
  std::fill(out.begin(), out.end(), base_score_);
  flat_.accumulate(rows, num_features, params_.learning_rate, out);
}

namespace {

constexpr auto kHistGbdtFields = [](auto& p, auto&& field) {
  field("n_estimators", p.n_estimators);
  field("learning_rate", p.learning_rate);
  field("max_leaves", p.max_leaves);
  field("max_bins", p.max_bins);
  field("lambda", p.lambda);
  field("min_child_weight", p.min_child_weight);
  field("min_split_gain", p.min_split_gain);
  field("subsample", p.subsample);
  field("colsample", p.colsample);
};

}  // namespace

Json HistGbdt::to_json(bin::Writer* sections) const {
  Json j = Json::object();
  j["type"] = name();
  j["base_score"] = base_score_;
  j["params"] = serial::write_params(params_, kHistGbdtFields);
  serial::put_forest(j, flat_, sections);
  return j;
}

std::unique_ptr<HistGbdt> HistGbdt::from_json(const Json& j,
                                              const bin::Reader* sections) {
  ANB_CHECK(j.at("type").as_string() == "lgb",
            "HistGbdt::from_json: wrong type tag");
  auto model = std::make_unique<HistGbdt>(
      serial::read_params<HistGbdtParams>(j.at("params"), kHistGbdtFields));
  model->base_score_ = j.at("base_score").as_number();
  model->flat_ = serial::get_forest(j, sections);
  return model;
}

}  // namespace anb
