// Quickstart: construct a (small) Accel-NASBench and ask it questions.
//
// In 40 lines: build the benchmark, query accuracy and device throughput
// for a hand-written architecture and for EfficientNet-B0, and show what
// the zero-cost evaluation replaces (simulated GPU-hours of training).

#include <cstdio>

#include "anb/anb/pipeline.hpp"
#include "anb/obs/obs.hpp"
#include "anb/searchspace/zoo.hpp"

int main() {
  using namespace anb;

  // 1. Construct the benchmark. n_archs is reduced from the paper's 5.2k so
  //    the quickstart finishes in seconds; see build_benchmark.cpp for the
  //    full-scale pipeline with SMAC tuning and save/load.
  PipelineOptions options;
  options.n_archs = 800;
  const PipelineResult result = construct_benchmark(options);
  std::printf("benchmark ready: accuracy surrogate test tau = %.3f\n",
              result.test_metrics.at("ANB-Acc").kendall_tau);
  std::printf("collection cost: %.0f simulated GPU-hours (queries below are "
              "zero-cost)\n\n",
              result.data.total_gpu_hours);

  // 2. Describe an architecture: 7 blocks x {expansion, kernel, layers, SE}.
  const Arch my_arch = MnasSpace::instance().arch_from_string(
      "e1k3L1s0-e6k3L2s0-e6k5L2s1-e6k3L3s1-e6k5L3s1-e6k5L3s1-e6k3L1s1");

  // 3. Zero-cost queries.
  const Arch b0 = effnet_b0_like().arch;
  for (const auto& [name, arch] :
       {std::pair<const char*, Arch>{"my_arch", my_arch},
        {"effnet-b0", b0}}) {
    std::printf("%-10s top-1(pred) = %.4f", name,
                result.bench.query_accuracy(arch));
    std::printf("  | A100 %.0f img/s | TPUv3 %.0f img/s | ZCU102 %.2f ms\n",
                result.bench.query_perf(arch, MetricKey{DeviceKind::kA100, PerfMetric::kThroughput}),
                result.bench.query_perf(arch, MetricKey{DeviceKind::kTpuV3, PerfMetric::kThroughput}),
                result.bench.query_perf(arch, MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency}));
  }

  // 4. What one of those queries would have cost without the benchmark.
  const auto sim = make_space_sim(SpaceId::kMnasNet, options.world_seed);
  std::printf("\nwithout the benchmark, evaluating my_arch would cost %.1f "
              "GPU-hours (proxy)\nor %.1f GPU-hours (reference scheme)\n",
              sim->training_cost_hours(my_arch, result.p_star),
              sim->training_cost_hours(my_arch, reference_scheme()));

  // 5. Persist and reopen. The .anbb extension selects the zero-copy
  //    binary container: open() mmaps the node arrays in place, so the
  //    reload below costs milliseconds instead of a full JSON re-parse
  //    (bench/load_latency measures ~40x at paper scale). open() sniffs
  //    the magic, so the same call also reads JSON artifacts.
  result.bench.save_binary("quickstart.anbb");
  const AccelNASBench reopened = AccelNASBench::open("quickstart.anbb");
  std::printf("\nreloaded quickstart.anbb: top-1(my_arch) = %.4f (identical "
              "to the in-memory benchmark)\n",
              reopened.query_accuracy(my_arch));

  // 6. ANB_TRACE=trace.json ./quickstart dumps the instrumented span tree
  //    (collection, fitting, queries) as chrome://tracing JSON.
  if (obs::write_requested_trace())
    std::printf("\ntrace written to %s (open in chrome://tracing)\n",
                obs::requested_trace_path()->c_str());
  return 0;
}
