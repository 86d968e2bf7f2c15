#pragma once

// Shared fixture helpers for the serve test suites: a small fitted
// benchmark (accuracy + two performance targets), distinct-architecture
// sampling, the serial oracle the determinism tests compare against, and
// a deadline for reads that may never be answered.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/anb/tuning.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/util/net.hpp"

namespace anb::serve_test {

inline std::unique_ptr<Surrogate> fitted_model(
    std::uint64_t seed, double scale = 1.0,
    const SearchSpace& sp = MnasSpace::instance()) {
  Dataset ds(static_cast<std::size_t>(sp.feature_dim()));
  Rng rng(seed);
  for (int i = 0; i < 150; ++i) {
    const Arch a = sp.sample(rng);
    const auto f = sp.features(a);
    double y = 0.0;
    for (double v : f) y += v;
    ds.add(f, scale * y + rng.normal(0.0, 0.01));
  }
  auto model = make_default_surrogate(SurrogateKind::kXgb);
  model->fit(ds, rng);
  return model;
}

inline constexpr MetricKey kA100Thr{DeviceKind::kA100,
                                    PerfMetric::kThroughput};
inline constexpr MetricKey kZcuLat{DeviceKind::kZcu102, PerfMetric::kLatency};

/// Accuracy + two perf targets, so requests spread over three scheduler
/// buckets. Deterministic in `seed`; serves the given space's genotypes
/// (MnasNet by default, matching the pre-multi-space suites).
inline AccelNASBench make_bench(std::uint64_t seed = 1,
                                const SearchSpace& sp =
                                    MnasSpace::instance()) {
  AccelNASBench bench;
  bench.set_space(sp.id());
  bench.set_accuracy_surrogate(fitted_model(seed, 1.0, sp));
  bench.set_perf_surrogate(kA100Thr, fitted_model(seed + 1, 100.0, sp));
  bench.set_perf_surrogate(kZcuLat, fitted_model(seed + 2, 0.5, sp));
  return bench;
}

/// `n` pairwise-distinct architecture indices in the given space.
inline std::vector<std::uint64_t> distinct_indices(
    std::size_t n, std::uint64_t seed,
    const SearchSpace& sp = MnasSpace::instance()) {
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> out;
  Rng rng(seed);
  while (out.size() < n) {
    const std::uint64_t index = sp.to_index(sp.sample(rng));
    if (seen.insert(index).second) out.push_back(index);
  }
  return out;
}

/// Shuts `socket` down if still alive after `limit`, so a read waiting
/// for a reply that never comes throws Disconnected instead of blocking
/// the suite until ctest's timeout.
class ReadDeadline {
 public:
  ReadDeadline(net::Socket& socket, std::chrono::seconds limit)
      : watchdog_([&socket, limit, done = done_.get_future()] {
          if (done.wait_for(limit) == std::future_status::timeout) {
            socket.shutdown_both();
          }
        }) {}
  ~ReadDeadline() {
    done_.set_value();
    watchdog_.join();
  }
  ReadDeadline(const ReadDeadline&) = delete;
  ReadDeadline& operator=(const ReadDeadline&) = delete;

 private:
  std::promise<void> done_;  // declared first: the watchdog reads it
  std::thread watchdog_;
};

}  // namespace anb::serve_test
