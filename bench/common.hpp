#pragma once

// Shared setup for the reproduction harnesses. Every bench binary fixes the
// same world seed so all experiments run against the same simulated
// "reality", mirroring the paper's single physical testbed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "anb/anb/pipeline.hpp"
#include "anb/obs/obs.hpp"

namespace anb::bench {

/// Experiment artifacts are committed only under results/ (enforced by
/// .gitignore); route every CSV through here so nothing lands in the
/// repo root.
inline std::string results_path(const std::string& name) {
  std::filesystem::create_directories("results");
  return (std::filesystem::path("results") / name).string();
}

inline constexpr std::uint64_t kWorldSeed = 42;

/// Honors ANB_FAST=1 for quick smoke runs of the harnesses.
inline bool fast_mode() {
  const char* env = std::getenv("ANB_FAST");
  return env != nullptr && std::string(env) == "1";
}

/// Paper-scale dataset size (~5.2k architectures) unless fast mode.
inline int collection_size() { return fast_mode() ? 1000 : 5200; }

/// Collect the paper's datasets once (accuracy + all device metrics).
inline CollectedData collect_datasets(bool with_perf = true) {
  const auto sim = make_space_sim(SpaceId::kMnasNet, kWorldSeed);
  DataCollector collector(*sim, device_catalog());
  CollectionConfig config;
  config.n_archs = collection_size();
  config.seed = hash_combine(kWorldSeed, 0xC011EC7);
  config.scheme = canonical_p_star();
  config.collect_perf = with_perf;
  return collector.collect(config);
}

/// The paper's 0.8/0.1/0.1 split with a fixed seed.
inline DatasetSplits split_paper_style(const Dataset& data,
                                       std::uint64_t salt = 0) {
  Rng rng(hash_combine(13, salt));
  return data.split(0.8, 0.1, rng);
}

/// `--trace` turns on span recording for this run; `ANB_TRACE=path` does
/// the same through the environment (and names the output file). Call at
/// the top of a harness main().
inline void parse_obs_flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) obs::set_trace_enabled(true);
  }
}

/// Export the run's observability artifacts into results/: the registry
/// counters as <stem>_metrics.csv always, plus the chrome://tracing JSON
/// as <stem>_trace.json when tracing was on (--trace or ANB_TRACE; an
/// ANB_TRACE path takes precedence). Call once at the end of main().
inline void export_obs(const std::string& stem) {
  obs::write_metrics_csv(results_path(stem + "_metrics.csv"));
  if (obs::trace_enabled() && !obs::write_requested_trace())
    obs::write_trace(results_path(stem + "_trace.json"));
}

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("Accel-NASBench reproduction — %s\n", experiment);
  std::printf("Paper artifact: %s\n", paper_ref);
  std::printf("world_seed=%llu  scale=%s\n",
              static_cast<unsigned long long>(kWorldSeed),
              fast_mode() ? "fast (ANB_FAST=1)" : "paper (~5.2k archs)");
  std::printf("================================================================\n");
}

}  // namespace anb::bench
