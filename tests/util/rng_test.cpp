#include "anb/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace anb {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedResetsStream) {
  Rng rng(7);
  const auto first = rng();
  rng.reseed(7);
  EXPECT_EQ(rng(), first);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
  EXPECT_THROW(rng.uniform(2.0, 2.0), Error);
}

TEST(RngTest, UniformIndexCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(21);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, NormalScaled) {
  Rng rng(22);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), Error);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(41);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, WeightedIndexRejectsBadInput) {
  Rng rng(1);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zero), Error);
  const std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(negative), Error);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(51);
  const auto idx = rng.sample_indices(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto i : idx) EXPECT_LT(i, 100u);
  EXPECT_THROW(rng.sample_indices(5, 6), Error);
}

TEST(RngTest, SampleIndicesIntoBufferMatchesReturnedVector) {
  Rng a(52), b(52);
  std::vector<std::size_t> buffer{7, 7, 7};  // stale contents are replaced
  for (const std::size_t k : {5u, 0u, 40u, 1u}) {
    b.sample_indices(40, k, buffer);
    EXPECT_EQ(buffer, a.sample_indices(40, k));
  }
  EXPECT_EQ(a(), b());  // same draws consumed
  EXPECT_THROW(b.sample_indices(5, 6, buffer), Error);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(61);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.fork();
  // The child should not replay the parent's stream.
  Rng b(99);
  (void)b.fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) equal += child() == b();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

TEST(RngTest, LognormalPositive) {
  Rng rng(71);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace anb
