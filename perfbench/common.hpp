#pragma once

#include <pthread.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/anb/pipeline.hpp"
#include "anb/searchspace/genotype.hpp"
#include "trace.hpp"

// Shared pieces of the benchmark program: the command line, the result
// being assembled, and the set-up artifact that `search` and `serve` query.

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir;  ///< artifacts and trace files, inside the checkout
};

/// What one run measured. Workloads set metrics by their names in
/// BENCHMARK.json; run.py checks the names and adds the units.
class Report {
 public:
  /// Record one operation or correctness check; a failure is printed.
  void op(bool ok, const std::string& what);
  /// Record `attempted` operations of which `failed` failed.
  void ops(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what);
  void set(const std::string& name, double value);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

/// Seconds elapsed since `start` (a trace::now_ns() reading).
double seconds_since(trace::Clock start);

/// CPU seconds used so far by every thread this process has run,
/// including threads that have ended.
double process_cpu_s();

/// CPU seconds used so far by one live thread of this process.
double thread_cpu_s(pthread_t thread);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Merged value of every obs registry counter, by name.
std::map<std::string, std::uint64_t> registry_counters();

/// `after[name] - before[name]`, 0 for a counter missing from either.
double counter_delta(const std::map<std::string, std::uint64_t>& before,
                     const std::map<std::string, std::uint64_t>& after,
                     const std::string& name);

/// Whether two double vectors hold the same bit patterns.
bool bit_identical(const std::vector<double>& a, const std::vector<double>& b);

/// Whether two .anbb artifacts have the same size and hold the same
/// models. Raw bytes cannot be compared: FlatNode's 4 padding bytes are
/// written as they lie in memory, so two saves of equal models differ
/// there.
bool same_artifact(const std::string& a, const std::string& b);

/// The lowest held-out Kendall tau over the datasets a build fitted.
double min_tau(const anb::PipelineResult& result);

/// `n` MnasNet architectures drawn from `seed`.
std::vector<anb::Arch> sample_archs(std::uint64_t seed, std::size_t n);

/// Reopen `path` with kMap and compare batched accuracy and every perf
/// target against `bench` on `probes`, bit for bit.
bool reopened_matches(const anb::AccelNASBench& bench, const std::string& path,
                      const std::vector<anb::Arch>& probes);

/// The benchmark `search` and `serve` query: an untuned MnasNet
/// construct_benchmark over the six paper devices, saved as .anbb and
/// opened with kMap. Set-up runs kSetupRepeats times; setup_s is the median.
/// Every workload uses the pipeline's default simulated world (world_seed
/// 42), so the work a run does does not hinge on one draw of the world;
/// --seed chooses the inputs run against it. `probe_seed` draws the
/// architectures of the reopen check.
struct SetupArtifact {
  anb::AccelNASBench bench;  ///< the last opened copy
  double setup_s = 0.0;  ///< median of the repeats
  double save_s = 0.0;   ///< median
  double open_s = 0.0;   ///< median
  double bytes = 0.0;
  double min_tau = 0.0;  ///< lowest held-out tau over the fitted datasets
};
SetupArtifact make_setup_artifact(std::uint64_t probe_seed,
                                  const std::string& path, Report& report);

/// Sets the artifact metrics every workload shares.
void report_artifact(const SetupArtifact& artifact, Report& report);

void run_build(const Args& args, Report& report);
void run_search(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace perfbench
