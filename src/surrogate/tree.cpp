#include "anb/surrogate/tree.hpp"

#include <algorithm>

#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"

namespace anb {

RegressionTree::RegressionTree(std::vector<TreeNode> nodes)
    : nodes_(std::move(nodes)) {
  ANB_CHECK(!nodes_.empty(), "RegressionTree: empty node list");
}

double RegressionTree::predict(std::span<const double> x) const {
  ANB_CHECK(!nodes_.empty(), "RegressionTree::predict: tree not fitted");
  int i = 0;
  while (nodes_[static_cast<std::size_t>(i)].feature >= 0) {
    const auto& n = nodes_[static_cast<std::size_t>(i)];
    ANB_CHECK(static_cast<std::size_t>(n.feature) < x.size(),
              "RegressionTree::predict: feature index out of range");
    i = x[static_cast<std::size_t>(n.feature)] < n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(i)].value;
}

void RegressionTree::predict_batch(std::span<const double> rows,
                                   std::size_t num_features,
                                   std::span<double> out) const {
  ANB_CHECK(!nodes_.empty(), "RegressionTree::predict_batch: tree not fitted");
  ANB_CHECK(num_features > 0 && rows.size() == out.size() * num_features,
            "RegressionTree::predict_batch: row matrix / output size "
            "mismatch");
  for (const auto& n : nodes_) {
    ANB_CHECK(n.feature < static_cast<int>(num_features),
              "RegressionTree::predict_batch: feature index out of range");
  }
  const TreeNode* const nodes = nodes_.data();
  const double* x = rows.data();
  for (std::size_t i = 0; i < out.size(); ++i, x += num_features) {
    int at = 0;
    while (nodes[at].feature >= 0) {
      const TreeNode& n = nodes[at];
      at = x[n.feature] < n.threshold ? n.left : n.right;
    }
    out[i] = nodes[at].value;
  }
}

int RegressionTree::num_leaves() const {
  int leaves = 0;
  for (const auto& n : nodes_)
    if (n.feature < 0) ++leaves;
  return leaves;
}

Json RegressionTree::to_json() const {
  Json arr = Json::array();
  for (const auto& n : nodes_) {
    Json jn = Json::object();
    jn["f"] = n.feature;
    jn["t"] = n.threshold;
    jn["l"] = n.left;
    jn["r"] = n.right;
    jn["v"] = n.value;
    arr.push_back(std::move(jn));
  }
  return arr;
}

RegressionTree RegressionTree::from_json(const Json& j) {
  std::vector<TreeNode> nodes;
  for (const auto& jn : j.as_array()) {
    TreeNode n;
    n.feature = jn.at("f").as_int();
    n.threshold = jn.at("t").as_number();
    n.left = jn.at("l").as_int();
    n.right = jn.at("r").as_int();
    n.value = jn.at("v").as_number();
    const int count = static_cast<int>(j.size());
    ANB_CHECK(n.feature < 0 || (n.left >= 0 && n.left < count && n.right >= 0 &&
                                n.right < count),
              "RegressionTree::from_json: dangling child index");
    nodes.push_back(n);
  }
  return RegressionTree(std::move(nodes));
}

ColumnIndex::ColumnIndex(const Dataset& data)
    : num_features_(data.num_features()), num_rows_(data.size()) {
  ANB_CHECK(num_rows_ > 0, "ColumnIndex: empty dataset");
  order_.resize(num_features_ * num_rows_);
  values_.resize(num_features_ * num_rows_);
  top_run_begin_.resize(num_features_);
  // Column slices are disjoint and each stable_sort is deterministic, so the
  // parallel build is bit-identical to a serial one.
  parallel_for(num_features_, [&](std::size_t f) {
    auto* begin = order_.data() + f * num_rows_;
    for (std::size_t i = 0; i < num_rows_; ++i)
      begin[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(begin, begin + num_rows_,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return data.feature(a, f) < data.feature(b, f);
                     });
    auto* vals = values_.data() + f * num_rows_;
    for (std::size_t i = 0; i < num_rows_; ++i)
      vals[i] = data.feature(begin[i], f);
    std::size_t top = num_rows_ - 1;
    while (top > 0 && vals[top - 1] == vals[num_rows_ - 1]) --top;
    top_run_begin_[f] = top;
  });
}

std::span<const double> ColumnIndex::sorted_values(std::size_t f) const {
  ANB_CHECK(f < num_features_, "ColumnIndex: feature out of range");
  return {values_.data() + f * num_rows_, num_rows_};
}

std::span<const std::uint32_t> ColumnIndex::sorted_rows(std::size_t f) const {
  ANB_CHECK(f < num_features_, "ColumnIndex: feature out of range");
  return {order_.data() + f * num_rows_, num_rows_};
}

std::size_t ColumnIndex::top_run_begin(std::size_t f) const {
  ANB_CHECK(f < num_features_, "ColumnIndex: feature out of range");
  return top_run_begin_[f];
}

namespace {

double leaf_gain(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

}  // namespace

TreeBuilder::TreeBuilder(const Dataset& data, const ColumnIndex& columns)
    : data_(data), columns_(columns) {
  ANB_CHECK(columns.num_features() == data.num_features() &&
                columns.num_rows() == data.size(),
            "build_tree: column index built for a different dataset");
  plans_.resize(columns.num_features());
  std::size_t rows_end = 0, values_end = 0;
  for (std::size_t f = 0; f < plans_.size(); ++f) {
    const auto values = columns.sorted_values(f);
    ColumnPlan& plan = plans_[f];
    plan.below_top = columns.top_run_begin(f);
    plan.low = values.front();
    plan.top = values[plan.below_top];
    plan.single_run =
        plan.below_top == 0 || values[plan.below_top - 1] == plan.low;
    plan.rows_begin = rows_end;
    rows_end += plan.below_top;
    plan.values_begin = values_end;
    if (!plan.single_run) values_end += plan.below_top;
  }
}

RegressionTree TreeBuilder::build(std::span<const double> g,
                                  std::span<const double> h,
                                  std::span<const double> row_weight,
                                  const TreeParams& params, Rng& rng,
                                  std::span<int> row_leaf) {
  const std::size_t n = data_.size();
  const std::size_t d = plans_.size();
  ANB_CHECK(g.size() == n && h.size() == n && row_weight.size() == n,
            "build_tree: gradient/weight arrays must match dataset size");
  ANB_CHECK(row_leaf.empty() || row_leaf.size() == n,
            "build_tree: row_leaf must match dataset size");
  ANB_CHECK(params.max_depth >= 1, "build_tree: max_depth must be >= 1");
  ANB_CHECK(params.lambda >= 0.0, "build_tree: lambda must be >= 0");

  // The products every sum is built from, formed once per row.
  row_sums_.resize(n);
  position_.resize(n);
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = row_weight[i];
    row_sums_[i] = {w * g[i], w * h[i], w, 1};
    position_[i] = w == 0.0 ? -1 : 0;
    if (w != 0.0) ++live;
  }
  std::fill(row_leaf.begin(), row_leaf.end(), -1);

  views_.resize(d);
  for (std::size_t f = 0; f < d; ++f) {
    views_[f] = {columns_.sorted_rows(f).data(),
                 plans_[f].single_run ? nullptr
                                      : columns_.sorted_values(f).data(),
                 plans_[f].below_top};
  }
  view_capacity_ = n;

  const bool subsample_features =
      params.features_per_node > 0 &&
      static_cast<std::size_t>(params.features_per_node) < d;
  std::vector<TreeNode> nodes(1);
  std::vector<int> active{0};  // node ids at the current level
  std::vector<int> next_active;
  // child_base[a] = index of node a's left child in next_active, or -1.
  std::vector<int> child_base;

  for (int depth = 0; depth < params.max_depth && !active.empty(); ++depth) {
    const std::size_t na = active.size();

    // Once a quarter of the rows in the views are finished, dropping them
    // costs less than skipping them at every later level.
    if (live * 4 <= view_capacity_ * 3) compact_views(live);

    // Totals per active node.
    totals_.assign(na, Sums{});
    for (std::size_t i = 0; i < n; ++i) {
      const int p = position_[i];
      if (p >= 0) totals_[static_cast<std::size_t>(p)].add(row_sums_[i]);
    }

    // Optional per-node feature subsampling (random-forest style).
    allowed_.clear();
    if (subsample_features) {
      allowed_.assign(na * d, 0);
      feature_used_.assign(d, 0);
      for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t f : rng.sample_indices(
                 d, static_cast<std::size_t>(params.features_per_node))) {
          allowed_[a * d + f] = 1;
          feature_used_[f] = 1;
        }
      }
    }

    // Candidates are scored in feature order. Tied columns are summed in
    // pairs (their sums are independent chains, so two keep twice as many
    // additions in flight); one waiting for a partner is flushed alone
    // before a column that scores as it scans.
    best_.assign(na, Split{});
    std::size_t waiting = d;
    for (std::size_t f = 0; f < d; ++f) {
      if (subsample_features && !feature_used_[f]) continue;
      if (plans_[f].single_run) {
        if (waiting == d) {
          waiting = f;
          continue;
        }
        scan_tied(waiting, f, na, params);
        waiting = d;
      } else {
        if (waiting != d) scan_tied(waiting, waiting, na, params);
        waiting = d;
        scan_column(f, na, params);
      }
    }
    if (waiting != d) scan_tied(waiting, waiting, na, params);

    // Materialize splits / leaves and the next level.
    next_active.clear();
    child_base.assign(na, -1);
    for (std::size_t a = 0; a < na; ++a) {
      const auto node_idx = static_cast<std::size_t>(active[a]);
      // Depth is bounded by the loop itself: splitting at level
      // max_depth-1 creates children that the post-loop pass turns into
      // leaves, so a max_depth=1 tree is a single stump.
      const bool do_split = best_[a].feature >= 0 && best_[a].gain > params.gamma;
      if (do_split) {
        // emplace_back below may reallocate `nodes`: finish every write
        // through the node reference first and keep the child indices in
        // locals (heap-use-after-free otherwise; caught by ASan).
        const int left_child = static_cast<int>(nodes.size());
        {
          TreeNode& node = nodes[node_idx];
          node.feature = best_[a].feature;
          node.threshold = best_[a].threshold;
          node.left = left_child;
          node.right = left_child + 1;
        }
        nodes.emplace_back();
        nodes.emplace_back();
        child_base[a] = static_cast<int>(next_active.size());
        next_active.push_back(left_child);
        next_active.push_back(left_child + 1);
      } else {
        TreeNode& node = nodes[node_idx];
        node.feature = -1;
        node.value = totals_[a].w > 0.0
                         ? -totals_[a].g / (totals_[a].h + params.lambda)
                         : 0.0;
      }
    }

    // Route rows to children (or retire them in finished leaves).
    for (std::size_t i = 0; i < n; ++i) {
      const int p = position_[i];
      if (p < 0) continue;
      const auto a = static_cast<std::size_t>(p);
      if (child_base[a] < 0) {
        position_[i] = -1;
        --live;
        if (!row_leaf.empty()) row_leaf[i] = active[a];
        continue;
      }
      const TreeNode& node = nodes[static_cast<std::size_t>(active[a])];
      const bool goes_left =
          data_.feature(i, static_cast<std::size_t>(node.feature)) <
          node.threshold;
      position_[i] = child_base[a] + (goes_left ? 0 : 1);
    }
    active.swap(next_active);
  }

  // Any nodes still active at max depth become leaves.
  if (!active.empty()) {
    totals_.assign(active.size(), Sums{});
    for (std::size_t i = 0; i < n; ++i) {
      const int p = position_[i];
      if (p < 0) continue;
      totals_[static_cast<std::size_t>(p)].add(row_sums_[i]);
      if (!row_leaf.empty()) row_leaf[i] = active[static_cast<std::size_t>(p)];
    }
    for (std::size_t a = 0; a < active.size(); ++a) {
      TreeNode& node = nodes[static_cast<std::size_t>(active[a])];
      node.feature = -1;
      node.value = totals_[a].w > 0.0
                       ? -totals_[a].g / (totals_[a].h + params.lambda)
                       : 0.0;
    }
  }

  return RegressionTree(std::move(nodes));
}

void TreeBuilder::compact_views(std::size_t live) {
  if (view_rows_.empty() && !plans_.empty()) {
    const ColumnPlan& last = plans_.back();
    view_rows_.resize(last.rows_begin + last.below_top);
    view_values_.resize(last.values_begin +
                        (last.single_run ? 0 : last.below_top));
  }
  for (std::size_t f = 0; f < plans_.size(); ++f) {
    ColumnView& view = views_[f];
    // In place once the view lives in the buffer: `kept` never passes `s`.
    std::uint32_t* rows = view_rows_.data() + plans_[f].rows_begin;
    double* values = view.values == nullptr
                         ? nullptr
                         : view_values_.data() + plans_[f].values_begin;
    std::size_t kept = 0;
    for (std::size_t s = 0; s < view.size; ++s) {
      const std::uint32_t row = view.rows[s];
      if (position_[row] < 0) continue;
      rows[kept] = row;
      if (values != nullptr) values[kept] = view.values[s];
      ++kept;
    }
    view = {rows, values, kept};
  }
  view_capacity_ = live;
}

void TreeBuilder::scan_tied(std::size_t f1, std::size_t f2,
                            std::size_t num_active, const TreeParams& params) {
  const ColumnView v1 = views_[f1];
  const ColumnView v2 = f2 == f1 ? ColumnView{} : views_[f2];
  const std::size_t common = std::min(v1.size, v2.size);
  left_.assign(2 * num_active, Sums{});
  Sums* const left1 = left_.data();
  Sums* const left2 = left1 + num_active;
  const Sums* const row_sums = row_sums_.data();
  const int* const position = position_.data();

  if (num_active == 1) {
    // Same additions in the same order, but the running sums stay in
    // registers instead of a store-to-load chain through memory.
    Sums sum1, sum2;
    const auto add = [&](Sums& sum, std::uint32_t row) {
      if (position[row] >= 0) sum.add(row_sums[row]);
    };
    for (std::size_t s = 0; s < common; ++s) {
      add(sum1, v1.rows[s]);
      add(sum2, v2.rows[s]);
    }
    for (std::size_t s = common; s < v1.size; ++s) add(sum1, v1.rows[s]);
    for (std::size_t s = common; s < v2.size; ++s) add(sum2, v2.rows[s]);
    left1[0] = sum1;
    left2[0] = sum2;
  } else {
    const auto add = [&](Sums* left, std::uint32_t row) {
      const int p = position[row];
      if (p >= 0) left[p].add(row_sums[row]);
    };
    for (std::size_t s = 0; s < common; ++s) {
      add(left1, v1.rows[s]);
      add(left2, v2.rows[s]);
    }
    for (std::size_t s = common; s < v1.size; ++s) add(left1, v1.rows[s]);
    for (std::size_t s = common; s < v2.size; ++s) add(left2, v2.rows[s]);
  }

  // Every row read ties, so the only candidates sit at the top run.
  close_column(f1, left1, nullptr, num_active, params);
  if (f2 != f1) close_column(f2, left2, nullptr, num_active, params);
}

void TreeBuilder::scan_column(std::size_t f, std::size_t num_active,
                              const TreeParams& params) {
  const ColumnView view = views_[f];
  left_.assign(num_active, Sums{});
  last_value_.resize(num_active);
  Sums* const left = left_.data();
  for (std::size_t s = 0; s < view.size; ++s) {
    const std::uint32_t row = view.rows[s];
    const int p = position_[row];
    if (p < 0) continue;
    const auto a = static_cast<std::size_t>(p);
    const double v = view.values[s];
    if (left[a].rows > 0 && v > last_value_[a] && allowed(a, f))
      score(a, f, left[a], last_value_[a], v, params);
    left[a].add(row_sums_[row]);
    last_value_[a] = v;
  }
  close_column(f, left, last_value_.data(), num_active, params);
}

void TreeBuilder::close_column(std::size_t f, const Sums* left,
                               const double* last_value,
                               std::size_t num_active,
                               const TreeParams& params) {
  // Each node's last candidate: between its last row read and the top run,
  // if it has rows on both sides.
  const ColumnPlan& plan = plans_[f];
  for (std::size_t a = 0; a < num_active; ++a) {
    if (left[a].rows > 0 && left[a].rows < totals_[a].rows && allowed(a, f)) {
      score(a, f, left[a], last_value == nullptr ? plan.low : last_value[a],
            plan.top, params);
    }
  }
}

void TreeBuilder::score(std::size_t a, std::size_t f, const Sums& left,
                        double lo, double hi, const TreeParams& params) {
  const Sums& tot = totals_[a];
  const double rg = tot.g - left.g;
  const double rh = tot.h - left.h;
  const double rw = tot.w - left.w;
  if (left.h >= params.min_child_weight && rh >= params.min_child_weight &&
      left.w >= params.min_samples_leaf && rw >= params.min_samples_leaf) {
    const double gain = leaf_gain(left.g, left.h, params.lambda) +
                        leaf_gain(rg, rh, params.lambda) -
                        leaf_gain(tot.g, tot.h, params.lambda);
    if (gain > best_[a].gain)
      best_[a] = {gain, static_cast<int>(f), 0.5 * (lo + hi)};
  }
}

RegressionTree build_tree(const Dataset& data, const ColumnIndex& columns,
                          std::span<const double> g, std::span<const double> h,
                          std::span<const double> row_weight,
                          const TreeParams& params, Rng& rng) {
  return TreeBuilder(data, columns).build(g, h, row_weight, params, rng);
}

}  // namespace anb
