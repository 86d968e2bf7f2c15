#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "anb/surrogate/dataset.hpp"
#include "anb/surrogate/flat_forest.hpp"

namespace anb {

namespace detail {
struct UnitNode;
struct UnitBest;
}  // namespace detail

/// Split-search hyperparameters shared by every tree-based surrogate.
///
/// The split criterion is the XGBoost second-order gain
///   gain = GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ) − γ
/// with leaf value −G/(H+λ). Plain variance-reduction trees (random
/// forests) are the special case g = −y, h = 1, λ = 0: the gain reduces to
/// the classic sum-of-squares reduction and leaves predict the mean target.
struct TreeParams {
  int max_depth = 6;
  double lambda = 1.0;            ///< L2 regularization on leaf values
  double gamma = 0.0;             ///< minimum gain to split
  double min_child_weight = 1.0;  ///< minimum hessian sum per child
  double min_samples_leaf = 1.0;  ///< minimum (weighted) rows per child
  int features_per_node = -1;     ///< random features per node; -1 = all
};

/// Pre-sorted column view of a dataset; build once, reuse across the trees
/// of a forest/ensemble (exact-greedy scans need sorted feature order).
class ColumnIndex {
 public:
  explicit ColumnIndex(const Dataset& data);

  /// Row indices sorted ascending by feature `f`.
  std::span<const std::uint32_t> sorted_rows(std::size_t f) const;
  /// Feature values in the same order as sorted_rows(f) (cached so the
  /// split scan avoids per-element bounds-checked Dataset access).
  std::span<const double> sorted_values(std::size_t f) const;
  /// Where the run of feature `f`'s largest value starts in sorted order.
  /// Rows from here on never sit left of a candidate split, so the split
  /// scan stops here (for a 0/1 column: it reads only the zeros).
  std::size_t top_run_begin(std::size_t f) const;
  std::size_t num_features() const { return num_features_; }
  std::size_t num_rows() const { return num_rows_; }

  /// The two-valued columns, ascending: columns with rows below the top
  /// run, all of which hold the column's smallest value (every 0/1 column).
  /// Bit t of a row mask stands for two_valued_columns()[t].
  std::span<const std::uint32_t> two_valued_columns() const {
    return two_valued_;
  }
  /// 64-bit words per row mask.
  std::size_t mask_words() const { return (two_valued_.size() + 63) / 64; }
  /// Row-major row masks, mask_words() words per row: bit t of row i is set
  /// when row i sits below the top run of two_valued_columns()[t].
  std::span<const std::uint64_t> below_top_masks() const { return masks_; }

 private:
  std::size_t num_features_;
  std::size_t num_rows_;
  std::vector<std::uint32_t> order_;  // column-major blocks of row ids
  std::vector<double> values_;        // column-major, parallel to order_
  std::vector<std::size_t> top_run_begin_;
  std::vector<std::uint32_t> two_valued_;
  std::vector<std::uint64_t> masks_;
};

/// Level-wise exact-greedy tree construction from per-row gradients g and
/// hessians h. `row_weight[i]` scales row i's contribution (0 excludes the
/// row; bootstrap multiplicities use weights > 1). A tree comes out as its
/// FlatNode array, root 0 and child indices tree-local, with leaves in
/// FlatNode's self-looping form: the form FlatForest concatenates and
/// both artifact formats store, so no other node type exists.
///
/// Each level reads only the rows that can move a split: rows with nonzero
/// weight in a node that is still growing, and only below a column's top
/// run, whose rows never sit left of a candidate. Two-valued columns (every
/// 0/1 column) are summed node by node: the node's rows, in ascending row
/// order, add their sums into a per-column buffer for every set bit of
/// their below-top mask (ColumnIndex::below_top_masks) that the node
/// sampled. The other columns are scanned in sorted order. Either way each
/// (node, column) sum adds the same rows in the same order as a scan of the
/// whole stable-sorted column, because ties keep ascending row order and a
/// skipped row adds nothing. Candidates tie-break to the lowest (feature,
/// position), as a scan in feature order with a strict `>` would. So the
/// fitted tree is bit-identical to a full scan (tests/surrogate/
/// tree_golden_test.cpp pins this).
///
/// When every live row has h = 1 and w = 1 (every Gbdt fit; checked once
/// per build()) and the dispatch target is AVX2, the two-valued columns go
/// through a split kernel instead (src/surrogate/split_kernels.hpp): the
/// h, w and row sums are one integer count, and the g sums are one dense
/// ordered fold in which a row outside a column adds +0.0, which is
/// exactly skipping it. The kernel scores the candidates with score()'s
/// operations in its order and returns the one offer() would keep, so it
/// is bit-identical to the scatter, which stays the path for every other
/// fit and target.
///
/// Rows move to their children without branches: each row is written to
/// both children's ends and the two cursors advance by the comparison, so
/// the left rows stay ascending, then the right ones. A split on a
/// two-valued column reads the row's bit in its below-top mask, not its
/// value, whenever `x < threshold` holds exactly for the low value (the
/// midpoint can round onto it) and every row below the top run holds it.
/// The per-row node slots and per-node column tables that the sorted scan
/// reads are kept only when some column is multi-valued: no encoding of
/// either search space has one.
///
/// A builder keeps its scratch buffers between build() calls, so one
/// builder serves every tree of a boosting fit. Not thread-safe: use one
/// builder per thread.
class TreeBuilder {
 public:
  TreeBuilder(const Dataset& data, const ColumnIndex& columns);

  /// Fits one tree. A non-empty `row_leaf` (one slot per row) receives the
  /// node index of the leaf each row with nonzero weight ends in, and -1
  /// for rows with zero weight.
  std::vector<FlatNode> build(std::span<const double> g,
                              std::span<const double> h,
                              std::span<const double> row_weight,
                              const TreeParams& params, Rng& rng,
                              std::span<int> row_leaf = {});

 private:
  /// Weighted gradient sums of a set of rows, and how many rows it holds.
  /// The count is a double (exact far past any row count) so that an add
  /// is two paired double additions.
  struct alignas(32) Sums {
    double g = 0.0, h = 0.0, w = 0.0, rows = 0.0;
    void add(const Sums& o) {
      g += o.g;
      h += o.h;
      w += o.w;
      rows += o.rows;
    }
  };
  struct Split {
    double gain = -std::numeric_limits<double>::infinity();
    int feature = -1;
    double threshold = 0.0;
  };
  /// The rows of a multi-valued column the scan reads, in sorted order.
  struct ColumnView {
    const std::uint32_t* rows = nullptr;
    const double* values = nullptr;
    std::size_t size = 0;
  };
  /// What the split search needs to know about one column, fixed by the
  /// data.
  struct ColumnPlan {
    double low = 0.0;            ///< smallest value
    double top = 0.0;            ///< largest value
    int bit = -1;                ///< bit in the row masks if two-valued
    std::size_t below_top = 0;   ///< rows below the top run
    std::size_t view_begin = 0;  ///< offset of its compacted view
  };

  void compact_views(std::size_t live);
  /// Moves the rows node_rows_[begin, end) of a node split as `node`: the
  /// left ones to node_rows_[kept, ...), advancing `kept`, and the right
  /// ones to right_rows_, whose count it returns; `position`, if not null,
  /// receives their child slots `left` and `left + 1`.
  std::size_t route(std::size_t begin, std::size_t end, const FlatNode& node,
                    int left, std::size_t& kept, int* position);
  /// Node by node: totals, the two-valued columns' sums and their
  /// candidates.
  void scan_two_valued(std::size_t num_active, const TreeParams& params);
  /// Sums and scores a column with several values below its top run.
  void scan_column(std::size_t f, std::size_t num_active,
                   const TreeParams& params);
  /// Node a's best two-valued candidate through the split kernel, for a
  /// fit whose live rows are all unit rows.
  void scan_unit_rows(std::size_t a, const std::uint64_t* sampled,
                      const TreeParams& params);
  void score(std::size_t a, std::size_t f, const Sums& left, double lo,
             double hi, const TreeParams& params);
  /// Keeps the candidate if it beats node a's best split.
  void offer(std::size_t a, std::size_t f, double gain, double lo, double hi);
  /// True when a split of a node on `plan`'s column at `threshold` can
  /// read the row masks: `x < threshold` holds exactly for the rows below
  /// the top run.
  static bool routes_by_mask(const ColumnPlan& plan, double threshold) {
    return plan.bit >= 0 && plan.low < threshold && !(plan.top < threshold);
  }
  bool allowed(std::size_t a, std::size_t f) const {
    return !sample_features_ || allowed_[a * plans_.size() + f] != 0;
  }

  const Dataset& data_;
  const ColumnIndex& columns_;
  std::vector<ColumnPlan> plans_;
  std::vector<std::size_t> multi_valued_;  // features scanned in sorted order
  std::vector<std::uint64_t> all_bits_;    // every two-valued column
  // Scratch, reused across build() calls.
  std::vector<Sums> row_sums_;     // per row: w*g, w*h, w
  // Per row: slot of its active node, -1 once done; kept only when a
  // multi-valued column is scanned.
  std::vector<int> position_;
  std::vector<std::uint32_t> node_rows_;  // live rows grouped by node
  std::vector<std::size_t> node_begin_;   // node a: node_rows_[begin[a], begin[a+1])
  std::vector<std::size_t> next_begin_;
  std::vector<std::uint32_t> right_rows_;  // one node's right rows
  std::vector<FlatNode> nodes_;  // the tree being built
  // Node ids at this level and the next, and per active node the slot of
  // its left child in next_active_, or -1.
  std::vector<int> active_, next_active_;
  std::vector<int> child_base_;
  std::vector<Sums> column_sums_;         // one node's two-valued sums
  // The split kernel for this build(), or nullptr for the scatter, and
  // its per-node input.
  detail::UnitBest (*unit_split_)(const detail::UnitNode&) = nullptr;
  std::vector<double> node_g_;
  std::vector<ColumnView> views_;  // per feature
  std::vector<std::uint32_t> view_rows_;  // compacted views live here
  std::vector<double> view_values_;
  std::size_t view_capacity_ = 0;  // rows the current views were cut for
  std::vector<Sums> totals_, left_;
  std::vector<double> parent_gain_;  // per node: leaf_gain of its totals
  std::vector<double> last_value_;
  std::vector<Split> best_;
  bool sample_features_ = false;  // this build() samples columns per node
  // Per node and column: sampled; per column: sampled by some node. Only
  // the sorted scan reads them.
  std::vector<char> allowed_, feature_used_;
  std::vector<std::uint64_t> sampled_bits_;  // per node: sampled two-valued
  std::vector<std::size_t> picks_;
};

/// One tree with a fresh TreeBuilder.
std::vector<FlatNode> build_tree(const Dataset& data,
                                 const ColumnIndex& columns,
                                 std::span<const double> g,
                                 std::span<const double> h,
                                 std::span<const double> row_weight,
                                 const TreeParams& params, Rng& rng);

}  // namespace anb
