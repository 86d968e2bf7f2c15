// Tests of the benchmark's statistics helpers. Run through ctest in the
// benchmark's build tree; run.py also runs it after every build.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  check(median({}) == 0.0, "median of nothing is 0");
  check(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages middles");

  // Nearest rank: the 99th percentile of 1..1000 is 990, with 10 beyond.
  const std::vector<double> thousand = iota(1000);
  check(percentile(thousand, 99.0) == 990.0, "p99 of 1..1000");
  check(percentile(thousand, 100.0) == 1000.0, "p100 is the max");
  check(percentile({7.0}, 50.0) == 7.0, "percentile of one sample");
  check(samples_beyond(1000, 99.0) == 10, "10 samples beyond p99 of 1000");
  check(samples_beyond(999, 99.0) == 9, "9 samples beyond p99 of 999");
  check(samples_beyond(0, 50.0) == 0, "nothing beyond in an empty sample");

  bool threw = false;
  try {
    percentile({}, 50.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile rejects an empty sample");

  // The tail is the highest level with at least 10 samples beyond it.
  const Summary s1000 = summarize(thousand);
  check(s1000.count == 1000, "count kept");
  check(s1000.median == 500.5, "median of 1..1000");
  check(s1000.tail_level == 99.0 && s1000.tail == 990.0, "p99 at n=1000");

  const Summary s999 = summarize(iota(999));
  check(s999.tail_level == 95.0, "n=999 falls back to p95");

  const Summary s19 = summarize(iota(19));
  check(s19.tail_level == 0.0 && s19.tail == 0.0, "n=19 has no tail");
  check(s19.median == 10.0, "median still reported without a tail");

  const Summary s20 = summarize(iota(20));
  check(s20.tail_level == 50.0 && s20.tail == 10.0, "n=20 reaches p50 only");

  const Summary s10k = summarize(iota(10000));
  check(s10k.tail_level == 99.9 && s10k.tail == 9990.0, "p99.9 at n=10000");

  // Unsorted input is summarized by value, not by position.
  const Summary shuffled = summarize({5.0, 1.0, 4.0, 2.0, 3.0});
  check(shuffled.median == 3.0, "summarize sorts its input");

  check(ratio(1.0, 4.0) == 0.25, "ratio");
  check(ratio(3.0, 0.0) == 0.0, "ratio with an empty base is 0");
  check(describe_ratio(1.0, 4.0) == "0.25 (1/4)", "ratio printed with base");
  check(describe(s20, "us") == "median=10.5us p50=10.0us (n=20)",
        "summary printed with its count");

  if (g_failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
