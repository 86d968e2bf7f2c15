#include "anb/nas/random_search.hpp"

#include <cstddef>
#include <vector>

#include "anb/util/error.hpp"

namespace anb {

SearchTrajectory RandomSearchNas::run_batched(const BatchEvalOracle& oracle,
                                              int n_evals, Rng& rng) {
  ANB_CHECK(static_cast<bool>(oracle), "RandomSearchNas: missing oracle");
  ANB_CHECK(n_evals >= 1, "RandomSearchNas: n_evals must be >= 1");
  std::vector<Arch> archs;
  archs.reserve(static_cast<std::size_t>(n_evals));
  for (int t = 0; t < n_evals; ++t) archs.push_back(space().sample(rng));
  const std::vector<double> values = oracle(archs);
  ANB_CHECK(values.size() == archs.size(),
            "RandomSearchNas: batched oracle returned wrong size");
  SearchTrajectory traj;
  for (std::size_t i = 0; i < archs.size(); ++i)
    traj.add(archs[i], values[i]);
  return traj;
}

}  // namespace anb
