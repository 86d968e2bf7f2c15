#pragma once

#include <cstddef>
#include <string>
#include <vector>

// Summary statistics for the benchmark's timings. A timing is reported as
// its median plus the highest percentile that still has at least
// kTailSamples samples beyond it, always with the sample count, so that a
// "p99" is never quoted from a sample too small to contain one.

namespace perfbench {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr std::size_t kTailSamples = 10;

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  /// Highest of the levels 50, 90, 95, 99 and 99.9 with >= kTailSamples
  /// samples beyond it; 0 when the sample is too small for any of them.
  double tail_level = 0.0;
  double tail = 0.0;  ///< value at tail_level (0 when tail_level is 0)
};

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `level` percent of the sample at or below it. Requires a
/// non-empty sample and 0 < level <= 100.
double percentile(const std::vector<double>& sorted, double level);

/// Samples strictly beyond the nearest-rank percentile `level` of `count`.
std::size_t samples_beyond(std::size_t count, double level);

/// Median (mean of the two middle values for an even count; 0 for an
/// empty sample).
double median(std::vector<double> samples);

Summary summarize(std::vector<double> samples);

/// "p99=812.4 (n=6000)" or "median only (n=12)": a summary with its base.
std::string describe(const Summary& s, const std::string& unit);

/// `num / den`, or 0 when den is 0.
double ratio(double num, double den);

/// "0.125 (3/24)": a ratio printed with its base.
std::string describe_ratio(double num, double den);

}  // namespace perfbench
