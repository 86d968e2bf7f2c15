#include "anb/util/rng.hpp"

#include <numbers>

namespace anb {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a;
  std::uint64_t h = splitmix64(s);
  s ^= b + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return splitmix64(s);
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  has_cached_normal_ = false;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork() { return Rng(next()); }

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ANB_CHECK(lo < hi, "Rng::uniform: lo must be < hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  ANB_CHECK(n > 0, "Rng::uniform_index: n must be > 0");
  // Rejection sampling for exact uniformity: draws at or above
  // limit = max() - max() % n are redrawn. limit > max() - n, so the
  // division that finds it is only needed for a draw above max() - n.
  std::uint64_t x = next();
  if (x > max() - n) {
    const std::uint64_t limit = max() - max() % n;
    while (x >= limit) x = next();
  }
  return x % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  ANB_CHECK(lo <= hi, "Rng::uniform_int: lo must be <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller. u1 in (0, 1] to keep log() finite.
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  ANB_CHECK(stddev >= 0.0, "Rng::normal: stddev must be >= 0");
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  ANB_CHECK(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0, 1]");
  return uniform() < p;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  ANB_CHECK(!weights.empty(), "Rng::weighted_index: empty weights");
  double total = 0.0;
  for (double w : weights) {
    ANB_CHECK(w >= 0.0, "Rng::weighted_index: negative weight");
    total += w;
  }
  ANB_CHECK(total > 0.0, "Rng::weighted_index: weights sum to zero");
  double r = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // guard against FP rounding
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx;
  sample_indices(n, k, idx);
  return idx;
}

void Rng::sample_indices(std::size_t n, std::size_t k,
                         std::vector<std::size_t>& out) {
  ANB_CHECK(k <= n, "Rng::sample_indices: k must be <= n");
  // Partial Fisher-Yates over an index vector.
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + uniform_index(n - i);
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

}  // namespace anb
