#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "anb/surrogate/dataset.hpp"

namespace anb {

/// Pre-quantized feature matrix for histogram-based training (the
/// LightGBM-style "bin mapper + bin matrix" pair). Each feature column is
/// quantized once into at most `max_bins` quantile bins over its distinct
/// values, and every cell is stored as a column-major uint8 bin code so a
/// boosting round reads codes instead of re-running edge searches.
///
/// Built once per (dataset, max_bins) and shared across fits: HistGbdt
/// consumes the codes directly, and the tuning loop reuses one instance
/// across all SMAC trials with the same max_bins (see TrainContext).
/// Construction parallelizes over features; columns are independent, so
/// the result is identical for any thread count.
///
/// The same bin-edge idea powers the masked SIMD descent engine at query
/// time: because histogram splits snap to these edges, a fitted forest's
/// per-feature thresholds form a small ladder that FlatForest re-derives
/// as uint8 comparison codes — training bins here, inference codes there,
/// one losslessness argument (DESIGN.md "SIMD descent").
class BinnedMatrix {
 public:
  /// Quantize `data`. `max_bins` must be in [2, 256] (codes fit uint8).
  BinnedMatrix(const Dataset& data, int max_bins);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_features() const { return num_features_; }
  int max_bins() const { return max_bins_; }

  /// Bins actually used by feature `f` (<= max_bins()).
  int num_bins(std::size_t f) const {
    return static_cast<int>(edges(f).size()) + 1;
  }

  /// Largest num_bins over all features — the histogram stride.
  int max_hist_bins() const { return max_hist_bins_; }

  /// Bin edges of feature `f`: value x falls in bin b iff
  /// edges[b-1] <= x < edges[b] (upper_bound semantics).
  std::span<const double> edges(std::size_t f) const;

  /// Split threshold separating bin `b` from bin `b+1` of feature `f`.
  double edge(std::size_t f, int b) const;

  /// Column `f` of the code matrix (num_rows() codes, contiguous).
  std::span<const std::uint8_t> codes(std::size_t f) const;

  /// Bin code of row `i`, feature `f`.
  std::uint8_t code(std::size_t i, std::size_t f) const {
    return codes_[f * num_rows_ + i];
  }


 private:
  std::size_t num_rows_ = 0;
  std::size_t num_features_ = 0;
  int max_bins_ = 0;
  int max_hist_bins_ = 1;
  // Per-feature edge lists stored flat: feature f's edges occupy
  // edges_flat_[edge_offsets_[f] .. edge_offsets_[f+1]).
  std::vector<double> edges_flat_;
  std::vector<std::size_t> edge_offsets_;  ///< d + 1 prefix offsets
  std::vector<std::uint8_t> codes_;        ///< column-major, d * n codes
};

}  // namespace anb
