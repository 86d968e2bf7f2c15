#include "anb/nas/optimizer.hpp"

#include <limits>
#include <utility>

#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"

namespace anb {

void SearchTrajectory::add(const Arch& arch, double value) {
  archs.push_back(arch);
  values.push_back(value);
  const double prev =
      incumbent.empty() ? -std::numeric_limits<double>::infinity()
                        : incumbent.back();
  incumbent.push_back(std::max(prev, value));
}

Arch SearchTrajectory::best_arch() const {
  ANB_CHECK(!values.empty(), "SearchTrajectory: empty trajectory");
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i)
    if (values[i] > values[best]) best = i;
  return archs[best];
}

double SearchTrajectory::best_value() const {
  ANB_CHECK(!incumbent.empty(), "SearchTrajectory: empty trajectory");
  return incumbent.back();
}

BatchEvalOracle batch_from_scalar(EvalOracle oracle) {
  ANB_CHECK(static_cast<bool>(oracle), "batch_from_scalar: missing oracle");
  return [oracle = std::move(oracle)](std::span<const Arch> archs) {
    std::vector<double> out;
    out.reserve(archs.size());
    for (const Arch& arch : archs) out.push_back(oracle(arch));
    return out;
  };
}

SearchOracle::SearchOracle(EvalOracle oracle)
    : batched_(batch_from_scalar(std::move(oracle))) {}

SearchOracle::SearchOracle(BatchEvalOracle oracle)
    : batched_(std::move(oracle)) {
  ANB_CHECK(static_cast<bool>(batched_),
            "SearchOracle: missing batched oracle");
}

SearchTrajectory NasOptimizer::run(const EvalOracle& oracle, int n_evals,
                                   Rng& rng) {
  ANB_CHECK(static_cast<bool>(oracle), "NasOptimizer: missing oracle");
  // Wrapped by reference, so any state the caller's oracle carries persists.
  return run_batched(
      batch_from_scalar([&oracle](const Arch& arch) { return oracle(arch); }),
      n_evals, rng);
}

SearchTrajectory NasOptimizer::run(const SearchOracle& oracle, int n_evals,
                                   Rng& rng) {
  ANB_SPAN("anb.nas.run");
  obs::counter("anb.nas.run.count").add(1);
  obs::counter("anb.nas.run.evals")
      .add(n_evals > 0 ? static_cast<std::uint64_t>(n_evals) : 0);
  return run_batched(oracle.batched(), n_evals, rng);
}

}  // namespace anb
