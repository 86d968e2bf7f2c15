// E7 — Fig. 6: true re-evaluation of hand-picked Pareto models against
// known high-quality baselines.
//
// The picked models from each bi-objective search are trained with the
// reference scheme r and measured on the device, then compared against
// EfficientNet-B0, MobileNetV3-L, EfficientNet-EdgeTPU-S, and MnasNet-A1.
// The paper's headline: e.g. effnet-vck190-a achieves +1.8% accuracy and
// +55% throughput over EfficientNet-B0 on the VCK190.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "anb/anb/harness.hpp"
#include "anb/util/csv.hpp"
#include "anb/util/table.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E7: true evaluation vs baselines", "Figure 6");

  PipelineOptions options;
  options.world_seed = bench::kWorldSeed;
  options.n_archs = bench::collection_size();
  const PipelineResult pipe = construct_benchmark(options);
  const auto sim = make_space_sim(SpaceId::kMnasNet, bench::kWorldSeed);

  struct Panel {
    const char* label;
    const char* tag;
    DeviceKind device;
    PerfMetric metric;
  };
  const Panel panels[] = {
      {"(a) ZCU102 acc-latency", "zcu102-lat", DeviceKind::kZcu102,
       PerfMetric::kLatency},
      {"(b) ZCU102 acc-throughput", "zcu102", DeviceKind::kZcu102,
       PerfMetric::kThroughput},
      {"(c) VCK190 acc-throughput", "vck190", DeviceKind::kVck190,
       PerfMetric::kThroughput},
      {"(d) TPUv3 acc-throughput", "tpuv3", DeviceKind::kTpuV3,
       PerfMetric::kThroughput},
      {"(e) A100 acc-throughput", "a100", DeviceKind::kA100,
       PerfMetric::kThroughput},
      {"(f) RTX 3090 acc-throughput", "rtx3090", DeviceKind::kRtx3090,
       PerfMetric::kThroughput},
  };

  CsvWriter csv({"panel", "model", "ours", "top1_ref", "perf"});

  for (const auto& panel : panels) {
    ParetoSearchConfig config;
    config.key = {panel.device, panel.metric};
    config.n_targets = bench::fast_mode() ? 3 : 7;
    config.n_evals_per_target = bench::fast_mode() ? 100 : 250;
    config.n_picks = 3;
    config.seed = hash_combine(5, static_cast<std::uint64_t>(panel.device) * 2 +
                                      static_cast<std::uint64_t>(panel.metric));
    const ParetoOutcome outcome = pareto_search(pipe.bench, config);
    const auto rows = true_evaluation(outcome, *sim, MetricKey{panel.device, panel.metric},
                                      panel.tag);
    const char* unit =
        panel.metric == PerfMetric::kThroughput ? "img/s" : "ms";

    std::printf("\n%s — reference-trained top-1 and measured %s\n",
                panel.label, unit);
    TextTable table({"model", "top-1 (r)", std::string("perf (") + unit + ")",
                     "ours"});
    for (const auto& row : rows) {
      table.add_row({row.name, TextTable::num(row.accuracy, 4),
                     TextTable::num(row.perf,
                                    panel.metric == PerfMetric::kLatency ? 2
                                                                         : 0),
                     row.is_ours ? "*" : ""});
      csv.add_row({panel.label, row.name, row.is_ours ? "1" : "0",
                   std::to_string(row.accuracy), std::to_string(row.perf)});
    }
    table.print(std::cout);

    // Headline comparison vs effnet-b0 (throughput panels only).
    if (panel.metric == PerfMetric::kThroughput) {
      const TrueEvalRow* b0 = nullptr;
      for (const auto& row : rows) {
        if (row.name == "effnet-b0") b0 = &row;
      }
      // Paper framing: a searched model that beats B0 on *both* axes.
      // Pick the fastest of our models that still matches B0's accuracy;
      // fall back to our most accurate model.
      const TrueEvalRow* best_ours = nullptr;
      for (const auto& row : rows) {
        if (!row.is_ours) continue;
        if (b0 != nullptr && row.accuracy >= b0->accuracy) {
          if (best_ours == nullptr || best_ours->accuracy < b0->accuracy ||
              row.perf > best_ours->perf) {
            best_ours = &row;
          }
        } else if (best_ours == nullptr ||
                   (best_ours->accuracy < (b0 ? b0->accuracy : 1.0) &&
                    row.accuracy > best_ours->accuracy)) {
          best_ours = &row;
        }
      }
      if (b0 != nullptr && best_ours != nullptr) {
        std::printf("  best pick vs effnet-b0: %+.1f%% top-1, %+.1f%% "
                    "throughput\n",
                    100.0 * (best_ours->accuracy - b0->accuracy),
                    100.0 * (best_ours->perf / b0->perf - 1.0));
      }
    }
  }

  std::printf("\n(paper example: effnet-vck190-a = +1.8%% top-1, +55%% "
              "throughput vs effnet-b0 on VCK190)\n");
  csv.save(bench::results_path("fig6_true_eval.csv"));
  std::printf("Rows written to results/fig6_true_eval.csv\n");
  anb::bench::export_obs("fig6_true_eval");
  return 0;
}
