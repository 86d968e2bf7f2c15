#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "anb/util/rng.hpp"

namespace anb {

struct DatasetSplits;

/// A tabular regression dataset: row-major feature matrix plus targets.
/// This is the {architecture encoding -> accuracy/performance} table the
/// surrogates are fitted on (ANB-Acc, ANB-{device}-{metric}).
class Dataset {
 public:
  explicit Dataset(std::size_t num_features);

  std::size_t num_features() const { return num_features_; }
  std::size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }

  /// Append one example. `x.size()` must equal num_features(), and no
  /// feature may be NaN (throws anb::Error naming the row and column).
  void add(std::span<const double> x, double y);

  std::span<const double> row(std::size_t i) const;
  double target(std::size_t i) const;
  std::span<const double> targets() const { return targets_; }

  /// The whole feature matrix, row-major (size() * num_features() values).
  /// This is the layout batched prediction consumes directly.
  std::span<const double> features_flat() const { return features_; }

  /// Value of feature `f` for row `i`.
  double feature(std::size_t i, std::size_t f) const;

  /// Subset by row indices (copies).
  Dataset subset(std::span<const std::size_t> indices) const;

  /// Deterministic shuffled split into train/val/test by fractions
  /// (must sum to <= 1; remainder goes to test). The paper uses 0.8/0.1/0.1.
  DatasetSplits split(double train_frac, double val_frac, Rng& rng) const;

  /// CSV round-trip: columns f0..f{d-1},target.
  std::string to_csv() const;
  static Dataset from_csv(const std::string& text);

 private:
  std::size_t num_features_;
  std::vector<double> features_;  // row-major, size = size() * num_features_
  std::vector<double> targets_;
};

/// Result of Dataset::split.
struct DatasetSplits {
  Dataset train;
  Dataset val;
  Dataset test;
};

}  // namespace anb
