#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/surrogate/surrogate.hpp"

namespace anb {

/// Ensemble of independently fitted base surrogates.
///
/// NASBench-301 argues that surrogate benchmarks should *model the noise* of
/// real training, not just its mean: an optimizer that exploits noiseless
/// queries behaves unrealistically. This wrapper fits `size` copies of a
/// base surrogate on bootstrap-perturbed data and offers
///   - predict():        ensemble mean (drop-in deterministic surrogate),
///   - predict_dist():   mean + ensemble standard deviation,
///   - sample():         a draw mean + std * z, emulating a noisy training
///                       run — the "noisy benchmark" query mode.
class EnsembleSurrogate final : public Surrogate {
 public:
  using Factory = std::function<std::unique_ptr<Surrogate>()>;

  /// `factory` creates unfitted base models; `size` >= 2.
  EnsembleSurrogate(Factory factory, int size, double bootstrap_frac = 0.9);

  /// Wrap already-fitted members (used by deserialization).
  explicit EnsembleSurrogate(std::vector<std::unique_ptr<Surrogate>> members);

  // Overriding fit(train, rng) would otherwise hide the base-class
  // context overload; re-export it (it falls back to the plain fit).
  using Surrogate::fit;
  void fit(const Dataset& train, Rng& rng) override;
  /// Batched ensemble mean: members' batched predictions accumulated in
  /// member order, matching the predict_dist() mean bit for bit.
  void predict_batch(std::span<const double> rows, std::size_t num_features,
                     std::span<double> out) const override;
  std::string name() const override { return "ensemble"; }
  Json to_json(bin::Writer* sections = nullptr) const override;
  static std::unique_ptr<EnsembleSurrogate> from_json(
      const Json& j, const bin::Reader* sections = nullptr);

  /// Ensemble mean and standard deviation.
  std::pair<double, double> predict_dist(std::span<const double> x) const;

  /// One noisy draw ~ N(mean, std): emulates seed-to-seed training noise.
  double sample(std::span<const double> x, Rng& rng) const;

  std::size_t size() const { return members_.size(); }
  const Surrogate& member(std::size_t i) const;

 private:
  Factory factory_;
  int target_size_ = 0;
  double bootstrap_frac_ = 0.9;
  std::vector<std::unique_ptr<Surrogate>> members_;
};

}  // namespace anb
