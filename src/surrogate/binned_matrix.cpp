#include "anb/surrogate/binned_matrix.hpp"

#include <algorithm>

#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"

namespace anb {

namespace {

/// Quantile edges over the distinct values of one feature column. `edges[b]`
/// separates bin b from bin b+1 (x goes to bin b iff x < edges[b] and
/// x >= edges[b-1]). Few distinct values bin losslessly at the midpoints;
/// otherwise edges sit at quantiles of the distinct-value list.
std::vector<double> make_edges(const Dataset& data, std::size_t f,
                               int max_bins) {
  std::vector<double> values(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) values[i] = data.feature(i, f);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  std::vector<double> edges;
  if (static_cast<int>(values.size()) <= max_bins) {
    edges.reserve(values.size());
    for (std::size_t k = 0; k + 1 < values.size(); ++k)
      edges.push_back(0.5 * (values[k] + values[k + 1]));
  } else {
    edges.reserve(static_cast<std::size_t>(max_bins));
    for (int b = 1; b < max_bins; ++b) {
      const auto pos = static_cast<std::size_t>(
          static_cast<double>(b) * static_cast<double>(values.size()) /
          max_bins);
      const std::size_t at = std::min(pos, values.size() - 1);
      const double edge =
          at > 0 ? 0.5 * (values[at - 1] + values[at]) : values[0];
      if (edges.empty() || edge > edges.back()) edges.push_back(edge);
    }
  }
  return edges;
}

}  // namespace

BinnedMatrix::BinnedMatrix(const Dataset& data, int max_bins)
    : num_rows_(data.size()),
      num_features_(data.num_features()),
      max_bins_(max_bins) {
  ANB_CHECK(max_bins >= 2 && max_bins <= 256,
            "BinnedMatrix: max_bins must be in [2, 256]");
  ANB_CHECK(num_rows_ >= 1, "BinnedMatrix: empty dataset");
  ANB_SPAN("anb.fit.bin_build");

  std::vector<std::vector<double>> edges_per_feature(num_features_);
  codes_.resize(num_features_ * num_rows_);
  // Each feature quantizes independently, so the loop is a pure partition
  // of the columns: codes and edges are identical at any thread count.
  parallel_for(num_features_, [&](std::size_t f) {
    edges_per_feature[f] = make_edges(data, f, max_bins_);
    const std::vector<double>& edges = edges_per_feature[f];
    std::uint8_t* column = codes_.data() + f * num_rows_;
    for (std::size_t i = 0; i < num_rows_; ++i) {
      column[i] = static_cast<std::uint8_t>(
          std::upper_bound(edges.begin(), edges.end(), data.feature(i, f)) -
          edges.begin());
    }
  });

  // Flatten the per-feature edge lists into one array + prefix offsets.
  edge_offsets_.assign(num_features_ + 1, 0);
  for (std::size_t f = 0; f < num_features_; ++f) {
    edge_offsets_[f + 1] = edge_offsets_[f] + edges_per_feature[f].size();
    edges_flat_.insert(edges_flat_.end(), edges_per_feature[f].begin(),
                       edges_per_feature[f].end());
  }
  for (std::size_t f = 0; f < num_features_; ++f)
    max_hist_bins_ = std::max(max_hist_bins_, num_bins(f));
}

std::span<const double> BinnedMatrix::edges(std::size_t f) const {
  ANB_CHECK(f < num_features_, "BinnedMatrix::edges: feature out of range");
  return std::span<const double>(edges_flat_)
      .subspan(edge_offsets_[f], edge_offsets_[f + 1] - edge_offsets_[f]);
}

double BinnedMatrix::edge(std::size_t f, int b) const {
  const std::span<const double> e = edges(f);
  ANB_CHECK(b >= 0 && static_cast<std::size_t>(b) < e.size(),
            "BinnedMatrix::edge: bin out of range");
  return e[static_cast<std::size_t>(b)];
}

std::span<const std::uint8_t> BinnedMatrix::codes(std::size_t f) const {
  ANB_CHECK(f < num_features_, "BinnedMatrix::codes: feature out of range");
  return {codes_.data() + f * num_rows_, num_rows_};
}

}  // namespace anb
