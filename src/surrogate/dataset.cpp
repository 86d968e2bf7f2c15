#include "anb/surrogate/dataset.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <string>

#include "anb/util/csv.hpp"
#include "anb/util/error.hpp"

namespace anb {

Dataset::Dataset(std::size_t num_features) : num_features_(num_features) {
  ANB_CHECK(num_features_ > 0, "Dataset: num_features must be > 0");
}

void Dataset::add(std::span<const double> x, double y) {
  ANB_CHECK(x.size() == num_features_,
            "Dataset::add: feature vector has wrong dimension");
  // NaN has no place in a column's sort order (ColumnIndex).
  for (std::size_t f = 0; f < x.size(); ++f)
    ANB_CHECK(!std::isnan(x[f]), "Dataset::add: NaN feature in row " +
                                     std::to_string(size()) + ", column " +
                                     std::to_string(f));
  features_.insert(features_.end(), x.begin(), x.end());
  targets_.push_back(y);
}

std::span<const double> Dataset::row(std::size_t i) const {
  ANB_CHECK(i < size(), "Dataset::row: index out of range");
  return {features_.data() + i * num_features_, num_features_};
}

double Dataset::target(std::size_t i) const {
  ANB_CHECK(i < size(), "Dataset::target: index out of range");
  return targets_[i];
}

double Dataset::feature(std::size_t i, std::size_t f) const {
  ANB_CHECK(i < size() && f < num_features_,
            "Dataset::feature: index out of range");
  return features_[i * num_features_ + f];
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(num_features_);
  for (std::size_t i : indices) {
    out.add(row(i), target(i));
  }
  return out;
}

DatasetSplits Dataset::split(double train_frac, double val_frac,
                             Rng& rng) const {
  ANB_CHECK(train_frac >= 0 && val_frac >= 0 && train_frac + val_frac <= 1.0,
            "Dataset::split: fractions must be non-negative and sum to <= 1");
  ANB_CHECK(size() >= 3, "Dataset::split: need at least 3 rows");
  std::vector<std::size_t> idx(size());
  for (std::size_t i = 0; i < size(); ++i) idx[i] = i;
  rng.shuffle(idx);

  const auto n_rows = static_cast<double>(size());
  const auto n_train = static_cast<std::size_t>(train_frac * n_rows);
  const auto n_val = static_cast<std::size_t>(val_frac * n_rows);
  const std::span<const std::size_t> all(idx);
  DatasetSplits splits{subset(all.subspan(0, n_train)),
                       subset(all.subspan(n_train, n_val)),
                       subset(all.subspan(n_train + n_val))};
  return splits;
}

std::string Dataset::to_csv() const {
  std::vector<std::string> header;
  header.reserve(num_features_ + 1);
  for (std::size_t f = 0; f < num_features_; ++f)
    header.push_back("f" + std::to_string(f));
  header.push_back("target");
  CsvWriter writer(std::move(header));
  for (std::size_t i = 0; i < size(); ++i) {
    std::vector<double> cells(row(i).begin(), row(i).end());
    cells.push_back(target(i));
    writer.add_row(cells);
  }
  return writer.to_string();
}

Dataset Dataset::from_csv(const std::string& text) {
  const auto rows = parse_csv(text);
  ANB_CHECK(rows.size() >= 2, "Dataset::from_csv: need header plus data rows");
  const std::size_t cols = rows[0].size();
  ANB_CHECK(cols >= 2, "Dataset::from_csv: need at least one feature column");
  Dataset out(cols - 1);
  std::vector<double> x(cols - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    ANB_CHECK(rows[r].size() == cols,
              "Dataset::from_csv: ragged row " + std::to_string(r));
    for (std::size_t c = 0; c < cols; ++c) {
      double v = 0.0;
      const auto& cell = rows[r][c];
      const auto [ptr, ec] =
          std::from_chars(cell.data(), cell.data() + cell.size(), v);
      ANB_CHECK(ec == std::errc{} && ptr == cell.data() + cell.size(),
                "Dataset::from_csv: bad number '" + cell + "'");
      if (c + 1 == cols) {
        out.add(x, v);
      } else {
        x[c] = v;
      }
    }
  }
  return out;
}

}  // namespace anb
