#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/surrogate/surrogate.hpp"
#include "anb/util/io.hpp"

namespace anb {

/// Which SVR formulation to solve.
enum class SvrKind {
  kEpsilon,  ///< ε-SVR: fixed tube width
  kNu,       ///< ν-SVR: tube width chosen so ~ν of points are outside it
};

/// Support-vector-regression hyperparameters. The RBF kernel
/// K(x,x') = exp(−γ‖x−x'‖²) operates on standardized features; C and ε are
/// expressed on the standardized-target scale.
struct SvrParams {
  SvrKind kind = SvrKind::kEpsilon;
  double c = 10.0;
  double epsilon = 0.05;  ///< ε-SVR tube half-width (standardized targets)
  double nu = 0.5;        ///< ν-SVR target fraction outside the tube
  double gamma = -1.0;    ///< RBF bandwidth; <= 0 uses 1/num_features
  double tolerance = 1e-3;
};

/// ε-/ν-support-vector regression via SMO on the 2n-variable dual
/// (the paper's remaining two candidate surrogates, Table 1).
///
/// ν-SVR is solved by the Schölkopf equivalence: ν upper-bounds the fraction
/// of points outside the ε-tube and every ν corresponds to some ε, so we
/// bisect ε until the out-of-tube fraction of the fitted ε-SVR matches ν.
/// Inputs are standardized per feature and targets standardized to unit
/// variance internally; predictions are mapped back.
class Svr final : public Surrogate {
 public:
  explicit Svr(SvrParams params = {});

  // Overriding fit(train, rng) would otherwise hide the base-class
  // context overload; re-export it (it falls back to the plain fit).
  using Surrogate::fit;
  void fit(const Dataset& train, Rng& rng) override;
  /// Blocked kernel expansion over a contiguous support-vector matrix;
  /// predict() is its one-row case, like every family's.
  void predict_batch(std::span<const double> rows, std::size_t num_features,
                     std::span<double> out) const override;
  std::string name() const override {
    return params_.kind == SvrKind::kEpsilon ? "esvr" : "nusvr";
  }
  Json to_json(bin::Writer* sections = nullptr) const override;
  static std::unique_ptr<Svr> from_json(const Json& j,
                                        const bin::Reader* sections = nullptr);

  const SvrParams& params() const { return params_; }
  std::size_t num_support_vectors() const { return sv_coef_.size(); }
  /// ε actually used (the bisection result for ν-SVR).
  double effective_epsilon() const { return effective_epsilon_; }

 private:
  struct FitOutput {
    std::vector<double> coef;  ///< β_i = α_i − α*_i per training row
    double bias = 0.0;
  };
  FitOutput solve_epsilon(const std::vector<std::vector<float>>& kernel,
                          std::span<const double> y, double epsilon) const;
  double gamma_value(std::size_t num_features) const;

  SvrParams params_;
  double effective_epsilon_ = 0.0;

  // Fitted state (standardization + sparse support-vector expansion).
  // ArrayRef so binary-loaded models can view artifact sections in place
  // (zero-copy mmap); fit() and text loads store owned vectors.
  io::ArrayRef<double> feat_mean_, feat_scale_;
  double target_mean_ = 0.0, target_scale_ = 1.0;
  io::ArrayRef<double> sv_coef_;
  double bias_ = 0.0;
  /// Standardized support vectors flattened row-major (num_support_vectors
  /// by num_features) — the layout the batched kernel expansion streams.
  io::ArrayRef<double> sv_flat_;
};

}  // namespace anb
