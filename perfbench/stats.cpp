#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr double kTailLevels[] = {50.0, 90.0, 95.0, 99.0, 99.9};

std::size_t nearest_rank(std::size_t count, double level) {
  // The epsilon keeps levels like 99.9, which are inexact in binary, from
  // rounding an exact rank up by one.
  const double rank =
      std::ceil(level * static_cast<double>(count) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, count);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double level) {
  if (sorted.empty() || !(level > 0.0 && level <= 100.0)) {
    throw std::invalid_argument("percentile: empty sample or bad level");
  }
  return sorted[nearest_rank(sorted.size(), level) - 1];
}

std::size_t samples_beyond(std::size_t count, double level) {
  if (count == 0) return 0;
  return count - nearest_rank(count, level);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = median(samples);
  for (const double level : kTailLevels) {
    if (samples_beyond(s.count, level) < kTailSamples) break;
    s.tail_level = level;
    s.tail = percentile(samples, level);
  }
  return s;
}

std::string describe(const Summary& s, const std::string& unit) {
  char line[160];
  if (s.tail_level > 0.0) {
    std::snprintf(line, sizeof(line), "median=%.1f%s p%g=%.1f%s (n=%zu)",
                  s.median, unit.c_str(), s.tail_level, s.tail, unit.c_str(),
                  s.count);
  } else {
    std::snprintf(line, sizeof(line), "median=%.1f%s, no tail (n=%zu)",
                  s.median, unit.c_str(), s.count);
  }
  return line;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string describe_ratio(double num, double den) {
  char line[128];
  std::snprintf(line, sizeof(line), "%.4g (%.17g/%.17g)", ratio(num, den),
                num, den);
  return line;
}

}  // namespace perfbench
