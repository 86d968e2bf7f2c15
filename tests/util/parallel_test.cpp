#include "anb/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include "anb/util/error.hpp"

namespace anb {
namespace {

TEST(ParseNumThreadsTest, AcceptsDigitsOnlyInRange) {
  EXPECT_EQ(parse_num_threads("1"), 1u);
  EXPECT_EQ(parse_num_threads("4"), 4u);
  EXPECT_EQ(parse_num_threads("65535"), 65535u);
}

TEST(ParseNumThreadsTest, RejectsEverythingElse) {
  for (const char* bad : {"4x", " 8", "8 cores", "-2", "+4", "1e3", "", "0",
                          "65536", "99999999999999999999"})
    EXPECT_EQ(parse_num_threads(bad), 0u) << "'" << bad << "'";
  EXPECT_EQ(parse_num_threads(nullptr), 0u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, ResultsMatchSerial) {
  const std::size_t n = 5000;
  std::vector<double> parallel_out(n), serial_out(n);
  auto f = [](std::size_t i) {
    return std::sin(static_cast<double>(i)) * static_cast<double>(i % 17);
  };
  parallel_for(n, [&](std::size_t i) { parallel_out[i] = f(i); });
  for (std::size_t i = 0; i < n; ++i) serial_out[i] = f(i);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelForTest, ZeroAndTinyN) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  int calls = 0;
  parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, ExplicitThreadCount) {
  const std::size_t n = 100;
  std::atomic<int> total{0};
  parallel_for(n, [&](std::size_t) { total.fetch_add(1); },
               /*num_threads=*/3);
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelForTest, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(1000,
                   [](std::size_t i) {
                     if (i == 137) throw Error("boom");
                   }),
      Error);
}

TEST(ParallelForTest, NullBodyRejected) {
  EXPECT_THROW(parallel_for(10, nullptr), Error);
}

}  // namespace
}  // namespace anb
