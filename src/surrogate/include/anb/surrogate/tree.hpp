#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "anb/surrogate/dataset.hpp"
#include "anb/util/json.hpp"

namespace anb {

/// One node of a binary regression tree. Internal nodes route
/// x[feature] < threshold to `left`, else `right`; leaves hold `value`.
struct TreeNode {
  int feature = -1;  ///< -1 marks a leaf
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;
};

/// A fitted regression tree (prediction + serialization only; fitting is
/// done by TreeBuilder so random forests and gradient boosting can share
/// one exact-greedy split engine).
class RegressionTree {
 public:
  RegressionTree() = default;
  explicit RegressionTree(std::vector<TreeNode> nodes);

  double predict(std::span<const double> x) const;

  /// Batched prediction over a row-major matrix (out.size() rows of
  /// `num_features` columns). Performs the same comparisons as predict()
  /// with the per-node bounds check hoisted to one check per call, so the
  /// output is bit-identical to per-row predict().
  void predict_batch(std::span<const double> rows, std::size_t num_features,
                     std::span<double> out) const;

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  int num_leaves() const;

  Json to_json() const;
  static RegressionTree from_json(const Json& j);

 private:
  std::vector<TreeNode> nodes_;
};

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

 private:
  std::size_t num_features_;
  std::size_t num_rows_;
  std::vector<std::uint32_t> order_;  // column-major blocks of row ids
  std::vector<double> values_;        // column-major, parallel to order_
  std::vector<std::size_t> top_run_begin_;
};

/// Level-wise exact-greedy tree construction from per-row gradients g and
/// hessians h. `row_weight[i]` scales row i's contribution (0 excludes the
/// row; bootstrap multiplicities use weights > 1).
///
/// The split scan reads only the rows that can move a split: rows with
/// nonzero weight in a node that is still growing, and only below the
/// column's top run (ColumnIndex::top_run_begin). A node's last candidate,
/// at the boundary to the top run, is scored once after the scan from the
/// sums it has by then. Every gradient sum is added in the same order as a
/// scan of the whole sorted column, and candidates are scored in the same
/// order, so the fitted tree is bit-identical to one (tests/surrogate/
/// tree_golden_test.cpp pins this).
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
  RegressionTree build(std::span<const double> g, std::span<const double> h,
                       std::span<const double> row_weight,
                       const TreeParams& params, Rng& rng,
                       std::span<int> row_leaf = {});

 private:
  /// Weighted gradient sums of a set of rows, and how many rows it holds.
  struct Sums {
    double g = 0.0, h = 0.0, w = 0.0;
    std::size_t rows = 0;
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
  /// The rows of one column the scan reads, in sorted order.
  struct ColumnView {
    const std::uint32_t* rows = nullptr;
    const double* values = nullptr;  // null when every value is `low`
    std::size_t size = 0;
  };
  /// What the scan needs to know about one column, fixed by the data.
  struct ColumnPlan {
    std::size_t below_top = 0;  ///< rows below the top run
    bool single_run = false;    ///< every row below the top run ties
    double low = 0.0;           ///< smallest value
    double top = 0.0;           ///< largest value
    std::size_t rows_begin = 0;    ///< offset of its compacted view
    std::size_t values_begin = 0;  ///< (values only when !single_run)
  };

  void compact_views(std::size_t live);
  /// Sums tied columns f1 and f2 (f1 alone when f2 == f1), then scores.
  void scan_tied(std::size_t f1, std::size_t f2, std::size_t num_active,
                 const TreeParams& params);
  /// Sums and scores a column with several values below its top run.
  void scan_column(std::size_t f, std::size_t num_active,
                   const TreeParams& params);
  /// Scores each node's candidate at the top run of column f; `last_value`
  /// null means every row read had the column's smallest value.
  void close_column(std::size_t f, const Sums* left, const double* last_value,
                    std::size_t num_active, const TreeParams& params);
  void score(std::size_t a, std::size_t f, const Sums& left, double lo,
             double hi, const TreeParams& params);
  bool allowed(std::size_t a, std::size_t f) const {
    return allowed_.empty() || allowed_[a * plans_.size() + f] != 0;
  }

  const Dataset& data_;
  const ColumnIndex& columns_;
  std::vector<ColumnPlan> plans_;
  // Scratch, reused across build() calls.
  std::vector<Sums> row_sums_;     // per row: w*g, w*h, w
  std::vector<int> position_;      // per row: slot of its active node, -1 once done
  std::vector<ColumnView> views_;  // per feature
  std::vector<std::uint32_t> view_rows_;  // compacted views live here
  std::vector<double> view_values_;
  std::size_t view_capacity_ = 0;  // rows the current views were cut for
  std::vector<Sums> totals_, left_;
  std::vector<double> last_value_;
  std::vector<Split> best_;
  std::vector<char> allowed_, feature_used_;
};

/// One tree with a fresh TreeBuilder.
RegressionTree build_tree(const Dataset& data, const ColumnIndex& columns,
                          std::span<const double> g, std::span<const double> h,
                          std::span<const double> row_weight,
                          const TreeParams& params, Rng& rng);

}  // namespace anb
