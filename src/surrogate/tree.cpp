#include "anb/surrogate/tree.hpp"

#include <algorithm>
#include <bit>

#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/simd.hpp"
#include "split_kernels.hpp"

namespace anb {

ColumnIndex::ColumnIndex(const Dataset& data)
    : num_features_(data.num_features()), num_rows_(data.size()) {
  ANB_CHECK(num_rows_ > 0, "ColumnIndex: empty dataset");
  order_.resize(num_features_ * num_rows_);
  values_.resize(num_features_ * num_rows_);
  top_run_begin_.resize(num_features_);
  // Column slices are disjoint and each stable_sort is deterministic, so the
  // parallel build is bit-identical to a serial one. Dataset refuses NaN
  // features, so `<` is a strict weak order on every column.
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

  for (std::size_t f = 0; f < num_features_; ++f) {
    const std::size_t top = top_run_begin_[f];
    const double* vals = values_.data() + f * num_rows_;
    if (top > 0 && vals[top - 1] == vals[0])
      two_valued_.push_back(static_cast<std::uint32_t>(f));
  }
  const std::size_t words = mask_words();
  masks_.assign(num_rows_ * words, 0);
  for (std::size_t t = 0; t < two_valued_.size(); ++t) {
    const std::size_t f = two_valued_[t];
    const std::uint32_t* rows = order_.data() + f * num_rows_;
    for (std::size_t s = 0; s < top_run_begin_[f]; ++s)
      masks_[rows[s] * words + t / 64] |= std::uint64_t{1} << (t % 64);
  }
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

/// The count-exact split kernel for the dispatch target, or nullptr where
/// only the scatter runs (scalar or NEON target, or no vector build of
/// the kernel). The AVX-512 target is AVX2-capable: it takes the AVX2
/// kernel when the toolchain could not build the AVX-512 one.
detail::UnitSplitFn unit_split_kernel() {
  switch (simd::active_target()) {
    case simd::Target::kAvx512:
      if (const detail::UnitSplitFn k = detail::avx512_unit_split_kernel())
        return k;
      return detail::avx2_unit_split_kernel();
    case simd::Target::kAvx2:
      return detail::avx2_unit_split_kernel();
    case simd::Target::kScalar:
    case simd::Target::kNeon:
      break;
  }
  return nullptr;
}

}  // namespace

TreeBuilder::TreeBuilder(const Dataset& data, const ColumnIndex& columns)
    : data_(data), columns_(columns) {
  ANB_CHECK(columns.num_features() == data.num_features() &&
                columns.num_rows() == data.size(),
            "build_tree: column index built for a different dataset");
  plans_.resize(columns.num_features());
  const auto two_valued = columns.two_valued_columns();
  for (std::size_t t = 0; t < two_valued.size(); ++t)
    plans_[two_valued[t]].bit = static_cast<int>(t);
  all_bits_.assign(columns.mask_words(), 0);
  for (std::size_t t = 0; t < two_valued.size(); ++t)
    all_bits_[t / 64] |= std::uint64_t{1} << (t % 64);
  column_sums_.resize(64 * columns.mask_words());

  std::size_t view_end = 0;
  for (std::size_t f = 0; f < plans_.size(); ++f) {
    const auto values = columns.sorted_values(f);
    ColumnPlan& plan = plans_[f];
    plan.below_top = columns.top_run_begin(f);
    plan.low = values.front();
    plan.top = values[plan.below_top];
    if (plan.bit >= 0 || plan.below_top == 0) continue;
    multi_valued_.push_back(f);
    plan.view_begin = view_end;
    view_end += plan.below_top;
  }
}

std::vector<FlatNode> TreeBuilder::build(std::span<const double> g,
                                         std::span<const double> h,
                                         std::span<const double> row_weight,
                                         const TreeParams& params, Rng& rng,
                                         std::span<int> row_leaf) {
  const std::size_t n = data_.size();
  const std::size_t d = plans_.size();
  const std::size_t words = columns_.mask_words();
  ANB_CHECK(g.size() == n && h.size() == n && row_weight.size() == n,
            "build_tree: gradient/weight arrays must match dataset size");
  ANB_CHECK(row_leaf.empty() || row_leaf.size() == n,
            "build_tree: row_leaf must match dataset size");
  ANB_CHECK(params.max_depth >= 1, "build_tree: max_depth must be >= 1");
  ANB_CHECK(params.lambda >= 0.0, "build_tree: lambda must be >= 0");

  // The products every sum is built from, formed once per row. The live
  // rows, grouped by node and ascending within a node (the order in which a
  // stable-sorted column lists a node's tied rows), start as one group.
  // Only the sorted scan of a multi-valued column reads a row's node slot.
  const bool track_positions = !multi_valued_.empty();
  row_sums_.resize(n);
  if (track_positions) position_.resize(n);
  right_rows_.resize(n);
  node_rows_.clear();
  bool unit_rows = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = row_weight[i];
    row_sums_[i] = {w * g[i], w * h[i], w, 1.0};
    if (track_positions) position_[i] = w == 0.0 ? -1 : 0;
    if (w != 0.0) {
      node_rows_.push_back(static_cast<std::uint32_t>(i));
      unit_rows = unit_rows && w == 1.0 && h[i] == 1.0;
    }
  }
  // Every live row of a Gbdt fit has h = 1 and w = 1, so its two-valued
  // sums are one ordered g fold and a count (split_kernels.hpp).
  unit_split_ = unit_rows ? unit_split_kernel() : nullptr;
  node_begin_.assign({0, node_rows_.size()});
  std::size_t live = node_rows_.size();
  std::fill(row_leaf.begin(), row_leaf.end(), -1);

  views_.resize(d);
  for (const std::size_t f : multi_valued_) {
    views_[f] = {columns_.sorted_rows(f).data(),
                 columns_.sorted_values(f).data(), plans_[f].below_top};
  }
  view_capacity_ = n;

  sample_features_ = params.features_per_node > 0 &&
                     static_cast<std::size_t>(params.features_per_node) < d;
  nodes_.assign(1, FlatNode{});
  active_.assign(1, 0);
  // A leaf: value in the split slot, children self-looping.
  const auto make_leaf = [&](int id, const Sums& total) {
    nodes_[static_cast<std::size_t>(id)] = {
        total.w > 0.0 ? -total.g / (total.h + params.lambda) : 0.0, 0, id, id};
  };

  for (int depth = 0; depth < params.max_depth && !active_.empty(); ++depth) {
    const std::size_t na = active_.size();

    // Once a quarter of the rows in the views are finished, dropping them
    // costs less than skipping them at every later level.
    if (live * 4 <= view_capacity_ * 3) compact_views(live);

    // Optional per-node feature subsampling (random-forest style).
    if (sample_features_) {
      if (track_positions) {
        allowed_.assign(na * d, 0);
        feature_used_.assign(d, 0);
      }
      sampled_bits_.assign(na * words, 0);
      for (std::size_t a = 0; a < na; ++a) {
        rng.sample_indices(d, static_cast<std::size_t>(params.features_per_node),
                           picks_);
        for (const std::size_t f : picks_) {
          if (track_positions) {
            allowed_[a * d + f] = 1;
            feature_used_[f] = 1;
          }
          const int bit = plans_[f].bit;
          if (bit >= 0)
            sampled_bits_[a * words + static_cast<std::size_t>(bit) / 64] |=
                std::uint64_t{1} << (bit % 64);
        }
      }
    }

    best_.assign(na, Split{});
    scan_two_valued(na, params);
    for (const std::size_t f : multi_valued_) {
      if (sample_features_ && !feature_used_[f]) continue;
      scan_column(f, na, params);
    }

    // Materialize splits / leaves and the next level.
    next_active_.clear();
    child_base_.assign(na, -1);
    for (std::size_t a = 0; a < na; ++a) {
      const auto node_idx = static_cast<std::size_t>(active_[a]);
      // Depth is bounded by the loop itself: splitting at level
      // max_depth-1 creates children that the post-loop pass turns into
      // leaves, so a max_depth=1 tree is a single stump.
      const bool do_split = best_[a].feature >= 0 && best_[a].gain > params.gamma;
      if (do_split) {
        // Written before emplace_back, which may reallocate `nodes_`.
        const int left_child = static_cast<int>(nodes_.size());
        nodes_[node_idx] = {best_[a].threshold, best_[a].feature, left_child,
                           left_child + 1};
        nodes_.emplace_back();
        nodes_.emplace_back();
        child_base_[a] = static_cast<int>(next_active_.size());
        next_active_.push_back(left_child);
        next_active_.push_back(left_child + 1);
      } else {
        make_leaf(active_[a], totals_[a]);
      }
    }

    // Route rows to children (or retire them in finished leaves), node by
    // node in place: each child's rows stay ascending, and the children
    // keep their parents' order.
    std::size_t kept = 0;
    std::size_t begin = 0;
    next_begin_.assign(1, 0);
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t end = node_begin_[a + 1];
      if (child_base_[a] < 0) {
        for (std::size_t s = begin; s < end; ++s) {
          const std::uint32_t row = node_rows_[s];
          if (track_positions) position_[row] = -1;
          if (!row_leaf.empty()) row_leaf[row] = active_[a];
        }
        live -= end - begin;
        begin = end;
        continue;
      }
      const FlatNode& node = nodes_[static_cast<std::size_t>(active_[a])];
      const std::size_t right =
          route(begin, end, node, child_base_[a], kept,
                track_positions ? position_.data() : nullptr);
      next_begin_.push_back(kept);
      std::copy_n(right_rows_.data(), right, node_rows_.data() + kept);
      kept += right;
      next_begin_.push_back(kept);
      begin = end;
    }
    node_begin_.swap(next_begin_);
    active_.swap(next_active_);
  }

  // Any nodes still active at max depth become leaves.
  for (std::size_t a = 0; a < active_.size(); ++a) {
    Sums total;
    for (std::size_t s = node_begin_[a]; s < node_begin_[a + 1]; ++s) {
      const std::uint32_t row = node_rows_[s];
      total.add(row_sums_[row]);
      if (!row_leaf.empty()) row_leaf[row] = active_[a];
    }
    make_leaf(active_[a], total);
  }
  // The one allocation of a tree: its result, sized to fit.
  return {nodes_.begin(), nodes_.end()};
}

namespace {

/// Splits rows[begin, end) by `goes_left`, branch-free: every row is
/// written to both sides and each side's cursor advances by the test. The
/// left rows go to rows[kept, ...) (never past the row being read) and
/// the right rows to `right`, both in their original order. Returns the
/// number of right rows. A non-null `position` receives each row's child
/// slot, `left` or `left + 1`.
template <class GoesLeft>
std::size_t partition(std::uint32_t* rows, std::size_t begin,
                      std::size_t end, std::size_t& kept,
                      std::uint32_t* right, int* position, int left,
                      GoesLeft goes_left) {
  std::size_t l = kept;
  std::size_t r = 0;
  for (std::size_t s = begin; s < end; ++s) {
    const std::uint32_t row = rows[s];
    const bool to_left = goes_left(row);
    rows[l] = row;
    right[r] = row;
    l += to_left;
    r += !to_left;
    if (position != nullptr) position[row] = left + !to_left;
  }
  kept = l;
  return r;
}

}  // namespace

std::size_t TreeBuilder::route(std::size_t begin, std::size_t end,
                               const FlatNode& node, int left,
                               std::size_t& kept, int* position) {
  const auto f = static_cast<std::size_t>(node.feature);
  const ColumnPlan& plan = plans_[f];
  std::uint32_t* const rows = node_rows_.data();
  std::uint32_t* const right = right_rows_.data();
  if (routes_by_mask(plan, node.split)) {
    const std::size_t words = columns_.mask_words();
    const auto bit = static_cast<std::size_t>(plan.bit);
    const std::uint64_t* const masks =
        columns_.below_top_masks().data() + bit / 64;
    const std::size_t shift = bit % 64;
    return partition(rows, begin, end, kept, right, position, left,
                     [&](std::uint32_t row) {
                       return ((masks[std::size_t{row} * words] >> shift) &
                               1U) != 0;
                     });
  }
  const std::size_t d = plans_.size();
  const double* const x = data_.features_flat().data() + f;
  const double threshold = node.split;
  return partition(rows, begin, end, kept, right, position, left,
                   [&](std::uint32_t row) {
                     return x[std::size_t{row} * d] < threshold;
                   });
}

void TreeBuilder::compact_views(std::size_t live) {
  if (view_rows_.empty() && !multi_valued_.empty()) {
    const ColumnPlan& last = plans_[multi_valued_.back()];
    view_rows_.resize(last.view_begin + last.below_top);
    view_values_.resize(view_rows_.size());
  }
  for (const std::size_t f : multi_valued_) {
    ColumnView& view = views_[f];
    // In place once the view lives in the buffer: `kept` never passes `s`.
    std::uint32_t* rows = view_rows_.data() + plans_[f].view_begin;
    double* values = view_values_.data() + plans_[f].view_begin;
    std::size_t kept = 0;
    for (std::size_t s = 0; s < view.size; ++s) {
      const std::uint32_t row = view.rows[s];
      if (position_[row] < 0) continue;
      rows[kept] = row;
      values[kept] = view.values[s];
      ++kept;
    }
    view = {rows, values, kept};
  }
  view_capacity_ = live;
}

void TreeBuilder::scan_two_valued(std::size_t num_active,
                                  const TreeParams& params) {
  totals_.resize(num_active);
  parent_gain_.resize(num_active);
  const std::size_t words = columns_.mask_words();
  const std::uint64_t* const masks = columns_.below_top_masks().data();
  const auto two_valued = columns_.two_valued_columns();
  const Sums* const row_sums = row_sums_.data();
  Sums* const sums = column_sums_.data();
  for (std::size_t a = 0; a < num_active; ++a) {
    const std::uint64_t* const sampled =
        sample_features_ ? sampled_bits_.data() + a * words : all_bits_.data();
    if (unit_split_ != nullptr) {
      scan_unit_rows(a, sampled, params);
      continue;
    }
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = sampled[w]; bits != 0; bits &= bits - 1)
        sums[64 * w + static_cast<std::size_t>(std::countr_zero(bits))] = {};
    }
    Sums total;
    for (std::size_t s = node_begin_[a]; s < node_begin_[a + 1]; ++s) {
      const std::uint32_t row = node_rows_[s];
      const Sums add = row_sums[row];  // a copy: the buffer stores cannot alias it
      total.add(add);
      const std::uint64_t* const mask = masks + std::size_t{row} * words;
      for (std::size_t w = 0; w < words; ++w) {
        Sums* const word_sums = sums + 64 * w;
        for (std::uint64_t bits = mask[w] & sampled[w]; bits != 0;
             bits &= bits - 1)
          word_sums[static_cast<unsigned>(std::countr_zero(bits))].add(add);
      }
    }
    totals_[a] = total;
    parent_gain_[a] = leaf_gain(total.g, total.h, params.lambda);

    // Every row summed ties, so each column's one candidate sits at its top
    // run, if the node has rows on both sides.
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = sampled[w]; bits != 0; bits &= bits - 1) {
        const std::size_t t = 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
        const Sums& left = sums[t];
        if (left.rows > 0 && left.rows < total.rows) {
          const ColumnPlan& plan = plans_[two_valued[t]];
          score(a, two_valued[t], left, plan.low, plan.top, params);
        }
      }
    }
  }
}

void TreeBuilder::scan_unit_rows(std::size_t a, const std::uint64_t* sampled,
                                 const TreeParams& params) {
  const std::size_t begin = node_begin_[a];
  const std::size_t size = node_begin_[a + 1] - begin;
  node_g_.resize(size);
  double total_g = 0.0;
  for (std::size_t s = 0; s < size; ++s) {
    const double g = row_sums_[node_rows_[begin + s]].g;
    node_g_[s] = g;
    total_g += g;
  }
  // The scatter's totals: h, w and rows each add 1.0 per row.
  const auto count = static_cast<double>(size);
  totals_[a] = {total_g, count, count, count};
  parent_gain_[a] = leaf_gain(total_g, count, params.lambda);

  detail::UnitNode node;
  node.rows = node_rows_.data() + begin;
  node.g = node_g_.data();
  node.size = size;
  node.masks = columns_.below_top_masks().data();
  node.words = columns_.mask_words();
  node.sampled = sampled;
  node.total_g = total_g;
  node.parent_gain = parent_gain_[a];
  node.lambda = params.lambda;
  node.min_child_weight = params.min_child_weight;
  node.min_samples_leaf = params.min_samples_leaf;
  const detail::UnitBest best = unit_split_(node);
  if (best.column != detail::UnitBest::kNoColumn) {
    const std::size_t f = columns_.two_valued_columns()[best.column];
    offer(a, f, best.gain, plans_[f].low, plans_[f].top);
  }
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
  // Each node's last candidate: between its last row read and the top run,
  // if it has rows on both sides.
  const double top = plans_[f].top;
  for (std::size_t a = 0; a < num_active; ++a) {
    if (left[a].rows > 0 && left[a].rows < totals_[a].rows && allowed(a, f))
      score(a, f, left[a], last_value_[a], top, params);
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
    offer(a, f,
          leaf_gain(left.g, left.h, params.lambda) +
              leaf_gain(rg, rh, params.lambda) - parent_gain_[a],
          lo, hi);
  }
}

void TreeBuilder::offer(std::size_t a, std::size_t f, double gain, double lo,
                        double hi) {
  // The lowest (feature, position) wins a tie, as in one scan of every
  // column in feature order with a strict `>`: columns are not scored in
  // feature order, but a column's own candidates are in position order.
  Split& best = best_[a];
  const int feature = static_cast<int>(f);
  if (gain > best.gain || (gain == best.gain && feature < best.feature))
    best = {gain, feature, 0.5 * (lo + hi)};
}

std::vector<FlatNode> build_tree(const Dataset& data,
                                 const ColumnIndex& columns,
                                 std::span<const double> g,
                                 std::span<const double> h,
                                 std::span<const double> row_weight,
                                 const TreeParams& params, Rng& rng) {
  return TreeBuilder(data, columns).build(g, h, row_weight, params, rng);
}

}  // namespace anb
