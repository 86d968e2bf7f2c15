#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "anb/util/error.hpp"

namespace anb {

/// Deterministic, seedable pseudo-random generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component of the library takes an explicit
/// seed so that experiments are reproducible bit-for-bit across runs.
///
/// Not cryptographically secure; statistical quality is more than sufficient
/// for simulation workloads. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialize the stream from a new seed.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit draw.
  std::uint64_t operator()() { return next(); }

  /// Derive an independent child generator; used to give each simulated
  /// model/measurement its own stream without coupling to call order.
  Rng fork();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection method).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal draw (Box-Muller; caches the second deviate).
  double normal();

  /// Normal with the given mean/stddev. Requires stddev >= 0.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Log-normal draw: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Pick one element index from non-negative weights (sum > 0).
  std::size_t weighted_index(std::span<const double> weights);

  /// Uniformly pick one element of a non-empty container.
  template <typename Container>
  const typename Container::value_type& pick(const Container& c) {
    ANB_CHECK(!c.empty(), "Rng::pick: empty container");
    return c[uniform_index(c.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    if (c.size() < 2) return;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      std::size_t j = uniform_index(i + 1);
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  /// Sample k distinct indices from [0, n) in random order. Requires k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);
  /// The same draws into a caller-owned buffer (its capacity is reused, so
  /// a hot loop allocates nothing once the buffer has grown to n).
  void sample_indices(std::size_t n, std::size_t k,
                      std::vector<std::size_t>& out);

 private:
  std::uint64_t next();

  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// SplitMix64 step — also useful on its own for hashing seeds together.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless mix of two seeds into one (order-sensitive).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

}  // namespace anb
