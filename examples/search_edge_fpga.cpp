// Scenario: ship an ImageNet classifier on a Zynq UltraScale+ ZCU102 edge
// board with a hard 4 ms latency budget.
//
// This is the deployment problem the paper's intro motivates: FLOPs is a
// poor proxy for DPU latency (SE blocks stall the pipeline, depthwise convs
// behave differently than on GPUs), so we search *against the device
// surrogate* directly — at zero cost — then verify the winner with a
// simulated reference-training run and an on-device measurement.

#include <algorithm>
#include <cstdio>

#include "anb/anb/harness.hpp"
#include "anb/anb/pipeline.hpp"
#include "anb/ir/model_ir.hpp"
#include "anb/searchspace/zoo.hpp"

int main() {
  using namespace anb;
  constexpr double kLatencyBudgetMs = 4.0;

  PipelineOptions options;
  options.n_archs = 1200;
  const PipelineResult result = construct_benchmark(options);
  std::printf("benchmark ready; searching under a %.1f ms ZCU102 budget\n\n",
              kLatencyBudgetMs);

  // Bi-objective accuracy-latency search (REINFORCE over surrogates).
  ParetoSearchConfig config;
  config.key = {DeviceKind::kZcu102, PerfMetric::kLatency};
  config.n_targets = 5;
  config.n_evals_per_target = 200;
  const ParetoOutcome outcome = pareto_search(result.bench, config);

  // Pick the most accurate front member inside the budget.
  const std::size_t* best = nullptr;
  for (const std::size_t& idx : outcome.front) {
    if (outcome.perf[idx] > kLatencyBudgetMs) continue;
    if (best == nullptr || outcome.accuracy[idx] > outcome.accuracy[*best])
      best = &idx;
  }
  if (best == nullptr) {
    std::printf("no front member met the budget — relax it or search more\n");
    return 1;
  }
  const auto sim = make_space_sim(SpaceId::kMnasNet, options.world_seed);
  const Arch& winner = outcome.archs[*best];
  std::printf("winner: %s\n", sim->space().arch_to_string(winner).c_str());
  std::printf("  predicted: top-1 %.4f (proxy scale), latency %.2f ms\n",
              outcome.accuracy[*best], outcome.perf[*best]);

  // Verify: "train" it for real (reference scheme) and measure the board.
  const Device zcu = make_device(DeviceKind::kZcu102);
  const ModelIR ir = sim->lower(winner, 224);
  const double true_acc = sim->train(winner, reference_scheme(), 0).top1;
  const double true_lat = zcu.measure_latency(ir, 7);
  std::printf("  verified:  top-1 %.4f (reference), latency %.2f ms, "
              "%.2f GFLOPs, %.1fM params\n",
              true_acc, true_lat, ir.gflops(), ir.mparams());

  // Context: the usual suspects on the same board.
  std::printf("\nbaselines on ZCU102:\n");
  for (const auto& model : reference_zoo()) {
    const Arch arch = MnasSpace::from_blocks(model.arch);
    const ModelIR base_ir = sim->lower(arch, 224);
    std::printf("  %-16s top-1 %.4f, latency %.2f ms\n", model.name.c_str(),
                sim->train(arch, reference_scheme(), 0).top1,
                zcu.measure_latency(base_ir, 7));
  }
  std::printf("\nwithin budget (%.1f ms): searched model %s\n",
              kLatencyBudgetMs,
              true_lat <= kLatencyBudgetMs ? "fits" : "does NOT fit");
  return 0;
}
