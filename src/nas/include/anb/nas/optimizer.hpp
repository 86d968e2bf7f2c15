#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "anb/searchspace/space.hpp"

namespace anb {

/// Scalar evaluation oracle: architecture -> objective (higher is better).
/// Backed either by the real training simulator ("true search") or by the
/// benchmark surrogates ("simulated search") — the comparison between those
/// two is the paper's Fig. 5. Genotypes are space-tagged, so one oracle
/// type serves every registered space.
using EvalOracle = std::function<double(const Arch&)>;

/// Batched evaluation oracle: scores a whole population in one call;
/// element i of the result corresponds to archs[i]. No oracle may draw from
/// the optimizer's Rng: optimizers sample a population before scoring it,
/// so an oracle that consumed that stream would perturb a seeded trajectory.
using BatchEvalOracle =
    std::function<std::vector<double>(std::span<const Arch>)>;

/// Adapt a scalar oracle to the batched interface: the scalar oracle is
/// called once per architecture, in span order.
BatchEvalOracle batch_from_scalar(EvalOracle oracle);

/// A search objective as one batched oracle, so harnesses and benches can
/// pass either kind of oracle around as one value; a scalar oracle is
/// adapted with batch_from_scalar at construction.
class SearchOracle {
 public:
  /// Implicit by design: any call site with an existing oracle (or lambda)
  /// can pass it straight to the unified run().
  SearchOracle(EvalOracle oracle);             // NOLINT(google-explicit-constructor)
  SearchOracle(BatchEvalOracle oracle);        // NOLINT(google-explicit-constructor)

  const BatchEvalOracle& batched() const { return batched_; }

 private:
  BatchEvalOracle batched_;
};

/// Full record of one search run, in evaluation order.
struct SearchTrajectory {
  std::vector<Arch> archs;
  std::vector<double> values;
  std::vector<double> incumbent;  ///< running best value

  Arch best_arch() const;
  double best_value() const;
  void add(const Arch& arch, double value);
  std::size_t size() const { return values.size(); }
};

/// Common interface of the discrete NAS optimizers evaluated in the paper
/// (§4.1): Random Search, Regularized Evolution, REINFORCE. An optimizer
/// overrides run_batched, its one search loop; the scalar and SearchOracle
/// entry points both route through it.
///
/// Every optimizer searches one space, fixed at construction (defaulting
/// to MnasNet, the paper's space); sampling, mutation, and genotype
/// construction all route through that SearchSpace, so the same optimizer
/// instance code runs unchanged over any registered space.
class NasOptimizer {
 public:
  explicit NasOptimizer(const SearchSpace& space = MnasSpace::instance())
      : space_(&space) {}
  virtual ~NasOptimizer() = default;
  virtual std::string name() const = 0;
  /// The space this optimizer searches.
  const SearchSpace& space() const { return *space_; }
  /// Run against a batched oracle, evaluating exactly `n_evals`
  /// architectures in total. Optimizers with population structure score a
  /// whole population per oracle call; sequential ones pass batches of one.
  virtual SearchTrajectory run_batched(const BatchEvalOracle& oracle,
                                       int n_evals, Rng& rng) = 0;
  /// Run for exactly `n_evals` scalar oracle calls, made in trajectory
  /// order: run_batched(batch_from_scalar(oracle), ...).
  SearchTrajectory run(const EvalOracle& oracle, int n_evals, Rng& rng);
  /// Unified entry point, and the instrumented path: emits the
  /// "anb.nas.run" span and anb.nas.run.{count,evals} counters.
  SearchTrajectory run(const SearchOracle& oracle, int n_evals, Rng& rng);

 private:
  const SearchSpace* space_;
};

}  // namespace anb
