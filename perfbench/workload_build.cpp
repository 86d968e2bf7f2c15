// Workload `build`: construct a SMAC-tuned benchmark with proxy search
// over the six paper devices (9 datasets), then save it as .anbb. Tune and
// fit dominate, as at full size, so this exercises util.parallel, hpo and
// surrogate fit; queries appear only in the reopen check.
//
// Untraced run: set-up is kWarmups untuned warm-up builds. Then builds run
// until --seconds have passed, build k with input seed hash(--seed, k),
// which draws the proxy-search model grid and the reopen probes. World,
// collection and split stay the pipeline's defaults, so every build does
// comparable work and its held-out tau is a deterministic quality guard.
// Every build is reopened with kMap and must answer the probe queries
// bit-identically.
//
// Traced run: the first input is built once through construct_benchmark
// and once through a replay of pipeline.cpp made of public calls, each in
// a span. The two artifacts must hold the same models. Each dataset's
// winning configuration is then refit alone at 1 and at nproc threads.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anb/anb/pipeline.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/rng.hpp"
#include "common.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using anb::AccelNASBench;
using anb::PipelineOptions;

/// Sized so that tune + fit stay above 95% of a build's wall time, as at
/// full size, while a build takes ~5 s on 4 cores.
constexpr int kBuildArchs = 200;
constexpr int kTrials = 6;
constexpr int kTuningSubsample = 100;
constexpr int kWarmups = 5;
constexpr std::size_t kProbeArchs = 256;

PipelineOptions build_options(std::uint64_t input_seed) {
  PipelineOptions o;
  o.n_archs = kBuildArchs;
  o.run_proxy_search = true;
  o.proxy.n_models = 8;
  o.proxy.seed = anb::hash_combine(input_seed, 0x9A0);
  o.proxy.domains.batch_size = {512};
  o.proxy.domains.total_epochs = {15, 30, 50};
  o.proxy.domains.res_start = {160, 192};
  o.tune = true;
  o.tuning.n_trials = kTrials;
  o.tuning.tuning_subsample = kTuningSubsample;
  return o;
}

/// Warm-up builds (untuned, same size): thread start-up, allocator growth
/// and page faults happen here rather than in the first timed build.
double warm_up(std::uint64_t seed) {
  std::vector<double> samples;
  for (int i = 0; i < kWarmups; ++i) {
    PipelineOptions o;
    o.n_archs = kBuildArchs;
    o.split_seed = anb::hash_combine(seed, 0x3A7 + i);
    const trace::Clock t0 = trace::now_ns();
    (void)anb::construct_benchmark(o);
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

struct BuildOutcome {
  double build_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of every thread during the build
  double min_tau = 0.0;
  std::size_t archs = 0;
};

/// One timed build plus its untimed correctness checks.
BuildOutcome build_once(std::uint64_t input_seed, const std::string& path,
                        Report& report) {
  const trace::Clock t0 = trace::now_ns();
  const double cpu0 = process_cpu_s();
  const anb::PipelineResult result =
      anb::construct_benchmark(build_options(input_seed));
  result.bench.save_binary(path);
  BuildOutcome out;
  out.build_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.min_tau = min_tau(result);
  out.archs = result.data.archs.size();
  report.op(result.skipped_datasets.empty() && result.test_metrics.size() == 9,
            "build skipped a dataset");
  report.op(reopened_matches(result.bench, path,
                             sample_archs(anb::hash_combine(input_seed, 0x9B0),
                                          kProbeArchs)),
            "reopened .anbb answers differ from the built benchmark");
  return out;
}

/// What the traced replay keeps for the refit measurement.
struct ReplayTask {
  std::string name;
  std::optional<anb::DatasetSplits> splits;
  anb::Configuration config;
  std::uint64_t refit_seed = 0;
};

/// pipeline.cpp's construct_benchmark rebuilt from public calls, for the
/// tune = true, ensemble_accuracy = false path, with a span around each
/// call into a layer. Writes the artifact to `path`.
std::vector<ReplayTask> traced_replay(const PipelineOptions& options,
                                      const std::string& path,
                                      double& fan_out_s) {
  trace::Span root("anb.pipeline");
  std::unique_ptr<anb::SpaceSim> sim;
  {
    trace::Span s("anb.make_space_sim");
    sim = anb::make_space_sim(options.space, options.world_seed);
  }
  anb::TrainingScheme p_star;
  {
    trace::Span s("anb.proxy_search");
    const anb::ProxySearch search(*sim);
    p_star = search.run_grid(options.proxy).best;
  }
  anb::CollectionConfig collection;
  collection.n_archs = options.n_archs;
  collection.seed = anb::hash_combine(options.world_seed, 0xC011EC7);
  collection.scheme = p_star;
  collection.collect_perf = options.collect_perf;
  const std::vector<anb::Device> devices = anb::device_catalog();
  anb::CollectedData data;
  {
    trace::Span s("anb.collect");
    const anb::DataCollector collector(*sim, devices);
    data = collector.collect(collection);
  }

  struct FitTask {
    anb::Dataset data;
    std::string name;
    bool is_accuracy = false;
    anb::MetricKey key{};
  };
  std::vector<FitTask> tasks;
  {
    trace::Span s("anb.dataset");
    tasks.push_back({data.accuracy_dataset(), "ANB-Acc", true, {}});
    for (const anb::Device& device : devices) {
      std::vector<anb::PerfMetric> metrics{anb::PerfMetric::kThroughput};
      if (device.supports_latency()) {
        metrics.push_back(anb::PerfMetric::kLatency);
      }
      for (const anb::PerfMetric metric : metrics) {
        const anb::MetricKey key{device.kind(), metric};
        const std::string name = anb::dataset_name(key);
        if (data.perf.count(name) == 0) continue;
        tasks.push_back({data.perf_dataset(key), name, false, key});
      }
    }
  }

  std::vector<ReplayTask> kept(tasks.size());
  std::vector<std::unique_ptr<anb::Surrogate>> models(tasks.size());
  {
    trace::Span fan("util.parallel_for");
    const std::uint64_t fan_id = fan.id();
    const trace::Clock t0 = trace::now_ns();
    anb::parallel_for(tasks.size(), [&](std::size_t i) {
      trace::Span task("anb.fit_task", fan_id);
      const std::string& name = tasks[i].name;
      anb::Rng split_rng(anb::hash_combine(options.split_seed, name.size()));
      anb::DatasetSplits splits =
          tasks[i].data.split(options.train_frac, options.val_frac, split_rng);
      anb::TuneOptions tuning = options.tuning;
      tuning.seed = anb::hash_combine(options.world_seed, name.size() * 131);
      anb::TunedSurrogate tuned;
      {
        trace::Span s("anb.tune");
        tuned = anb::tune_surrogate(anb::SurrogateKind::kXgb, splits.train,
                                    splits.val, tuning);
      }
      {
        trace::Span s("surrogate.evaluate");
        (void)tuned.model->evaluate(splits.test);
      }
      models[i] = std::move(tuned.model);
      kept[i] = {name, std::move(splits), tuned.config,
                 anb::hash_combine(tuning.seed, 0xF1E1D)};
    });
    fan_out_s = seconds_since(t0);
  }

  AccelNASBench bench;
  bench.set_space(options.space);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].is_accuracy) {
      bench.set_accuracy_surrogate(std::move(models[i]));
    } else {
      bench.set_perf_surrogate(tasks[i].key, std::move(models[i]));
    }
  }
  {
    trace::Span s("anb.artifact.save");
    bench.save_binary(path);
  }
  return kept;
}

/// Refit every dataset's winning configuration alone at `threads` threads;
/// returns the summed fit wall time and each model's test predictions.
double refit_all(const std::vector<ReplayTask>& tasks, unsigned threads,
                 std::vector<std::vector<double>>& predictions) {
  anb::set_default_num_threads(threads);
  double total = 0.0;
  predictions.clear();
  for (const ReplayTask& t : tasks) {
    auto model = anb::make_surrogate(anb::SurrogateKind::kXgb, t.config);
    anb::Rng rng(t.refit_seed);
    const trace::Clock t0 = trace::now_ns();
    model->fit(t.splits->train, rng);
    total += seconds_since(t0);
    predictions.push_back(model->predict_all(t.splits->test));
  }
  anb::set_default_num_threads(0);
  return total;
}

void traced_build(const Args& args, std::uint64_t input_seed, Report& report) {
  const std::string direct_path = args.out_dir + "/build_direct.anbb";
  const std::string replay_path = args.out_dir + "/build_replay.anbb";
  const PipelineOptions options = build_options(input_seed);

  const trace::Clock t0 = trace::now_ns();
  const anb::PipelineResult direct = anb::construct_benchmark(options);
  direct.bench.save_binary(direct_path);
  const double untraced_s = seconds_since(t0);

  const auto before = registry_counters();
  trace::set_run(1);
  trace::set_enabled(true);
  double fan_out_s = 0.0;
  const trace::Clock t1 = trace::now_ns();
  const std::vector<ReplayTask> tasks =
      traced_replay(options, replay_path, fan_out_s);
  const double traced_s = seconds_since(t1);
  const auto after = registry_counters();
  {
    trace::Span s("anb.artifact.open");
    (void)AccelNASBench::open(replay_path, anb::io::MapMode::kMap);
  }
  trace::set_enabled(false);
  report.op(same_artifact(direct_path, replay_path),
            "traced replay artifact differs from construct_benchmark's");
  report.op(tasks.size() == 9, "traced replay fitted a different dataset count");

  std::vector<double> tune_s;
  for (const trace::SpanRecord& s : trace::spans_named("anb.tune")) {
    tune_s.push_back(s.seconds());
  }
  const double tune_total = trace::total_s("anb.tune");
  const double trials = counter_delta(before, after, "anb.tune.trials");
  report.set("anb.proxy_search.s", trace::total_s("anb.proxy_search"));
  report.set("anb.collect.s", trace::total_s("anb.collect"));
  report.set("anb.collect.retries",
             counter_delta(before, after, "anb.collect.retries"));
  report.set("anb.tune.s", tune_total);
  report.set("anb.tune.max_s",
             tune_s.empty() ? 0.0
                            : *std::max_element(tune_s.begin(), tune_s.end()));
  report.set("anb.tune.trials", trials);
  report.set("anb.tune.ms_per_trial", ratio(tune_total * 1e3, trials));
  report.set("surrogate.fit.count",
             counter_delta(before, after, "anb.fit.gbdt.count"));
  report.set("util.parallel.calls",
             counter_delta(before, after, "anb.parallel.calls"));
  report.set("util.parallel.items",
             counter_delta(before, after, "anb.parallel.items"));
  report.set("util.parallel.busy_frac",
             ratio(trace::total_s("anb.fit_task"),
                   fan_out_s * anb::default_num_threads()));
  report.set("anb.artifact.save_s", trace::total_s("anb.artifact.save"));
  report.set("anb.artifact.open_s", trace::total_s("anb.artifact.open"));
  report.set("anb.artifact.bytes",
             static_cast<double>(std::filesystem::file_size(replay_path)));
  const double root_s = trace::total_s("anb.pipeline");
  report.set("trace.coverage_frac",
             ratio(root_s - trace::self_s("anb.pipeline"), root_s));
  report.set("trace.overhead_frac", ratio(traced_s - untraced_s, untraced_s));
  std::printf("traced build: untraced %.3fs, traced replay %.3fs, tune+fit "
              "fan-out %.3fs\n",
              untraced_s, traced_s, fan_out_s);

  std::vector<std::vector<double>> serial, threaded;
  const unsigned nproc = anb::default_num_threads();
  const double s_t1 = refit_all(tasks, 1, serial);
  const double s_tn = refit_all(tasks, nproc, threaded);
  report.op(serial.size() == threaded.size() &&
                std::equal(serial.begin(), serial.end(), threaded.begin(),
                           bit_identical),
            "refit at 1 thread and at nproc threads predicts differently");
  report.set("surrogate.fit.s_t1", s_t1);
  report.set("surrogate.fit.s_tN", s_tn);
  report.set("surrogate.fit.speedup", ratio(s_t1, s_tn));
  std::printf("refit of the %zu winning configs: %.3fs at 1 thread, %.3fs at "
              "%u threads\n",
              tasks.size(), s_t1, s_tn, nproc);
}

}  // namespace

void run_build(const Args& args, Report& report) {
  const double setup_s = warm_up(args.seed);
  std::printf("setup: %d warm-up builds of %d archs, median %.3fs\n", kWarmups,
              kBuildArchs, setup_s);
  report.set("setup_s", setup_s);

  if (args.trace) {
    traced_build(args, anb::hash_combine(args.seed, 0), report);
    return;
  }

  std::vector<double> build_s;
  std::vector<double> cpu_s;
  std::vector<double> taus;
  double total_s = 0.0;
  for (std::uint64_t k = 0; total_s < args.seconds; ++k) {
    const std::uint64_t input_seed = anb::hash_combine(args.seed, k);
    const BuildOutcome b =
        build_once(input_seed, args.out_dir + "/build.anbb", report);
    std::printf("build %llu: input_seed=%llu build_s=%.3f cpu_s=%.3f "
                "min_tau=%.4f archs=%zu\n",
                static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(input_seed), b.build_s,
                b.cpu_s, b.min_tau, b.archs);
    build_s.push_back(b.build_s);
    cpu_s.push_back(b.cpu_s);
    taus.push_back(b.min_tau);
    total_s += b.build_s;
  }
  report.set("op_ms", median(build_s) * 1e3);
  report.set("cpu_ms", median(cpu_s) * 1e3);
  report.set("min_tau", median(taus));
  std::printf("build_s %s\n", describe(summarize(build_s), "s").c_str());
  std::printf("build_min_tau %.4f tau (median over %zu builds)\n",
              median(taus), taus.size());
}

}  // namespace perfbench
