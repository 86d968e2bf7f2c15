// anbench — command-line front end for Accel-NASBench.
//
//   anbench build  [--out FILE] [--archs N] [--tune] [--energy]
//                  [--proxy-search] [--seed S]
//       Construct a benchmark (Fig. 2 pipeline) and save it. The output
//       format follows the --out extension: .anbb writes the zero-copy
//       binary container, anything else writes JSON.
//
//   anbench convert --bench FILE --out FILE
//       Re-save a benchmark in the format implied by the --out extension
//       (.anbb binary container <-> JSON text).
//
//   anbench info   --bench FILE
//       List the surrogates a saved benchmark contains.
//
//   anbench query  --bench FILE --arch SPEC [--device D] [--metric M]
//       Zero-cost accuracy (default) or device-performance query.
//       SPEC uses the space's native compact format; for MnasNet e.g.
//       e1k3L1s0-e6k3L2s0-e6k5L2s1-e6k3L3s1-e6k5L3s1-e6k5L3s1-e6k3L1s1
//       and for FBNet a dash-separated op list (e.g. e6k3-skip-...).
//
//   anbench search --bench FILE --device D --metric M [--budget N]
//       Bi-objective REINFORCE search over the surrogates; prints the front.
//
//   anbench random --count N [--seed S]
//       Sample random architectures (useful to pipe into query).
//
//   anbench query-remote --socket PATH (--arch SPEC [--device D]
//                        [--metric M] | --shutdown)
//       Query a running anbd server (tools/anbd.cpp) instead of opening an
//       artifact, or ask it to stop.
//
// Every subcommand that touches architectures takes --space
// {mnasnet,fbnet} (default mnasnet); query and search validate it
// against the artifact's space.
//
// Devices: tpuv2 tpuv3 a100 rtx3090 zcu102 vck190 npu-mobile cpu-server;
// metrics: Thr Lat Enr Mem.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "anb/anb/harness.hpp"
#include "anb/anb/pipeline.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/serve/client.hpp"
#include "anb/util/table.hpp"
#include "parse_count.hpp"

namespace {

using namespace anb;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: anbench <build|convert|info|query|search|query-remote|"
               "random> [options]\n"
               "run with a command and no options for per-command help; see "
               "the header of tools/anbench.cpp for details.\n");
  std::exit(2);
}

/// Simple --key value / --flag argument map.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) usage(("unexpected argument " + key).c_str());
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// --key as a strict decimal integer in [lo, INT_MAX]; a sign, junk
  /// or overflow is a usage error.
  int get_int(const std::string& key, int fallback, int lo = 0) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return static_cast<int>(cli::parse_count(
        "--" + key, it->second, static_cast<unsigned long>(lo),
        static_cast<unsigned long>(std::numeric_limits<int>::max()), usage));
  }
  std::string require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end() || it->second.empty())
      usage(("missing --" + key).c_str());
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Resolve the --space flag (default mnasnet; exact-match names).
const SearchSpace& space_arg(const Args& args) {
  register_builtin_spaces();
  return space_from_name(args.get("space", "mnasnet"));
}

/// True when `path` names the zero-copy binary container format.
bool wants_binary(const std::string& path) {
  const std::string ext = ".anbb";
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

/// Save in the format the output extension asks for.
void save_as(const AccelNASBench& bench, const std::string& out) {
  if (wants_binary(out)) {
    bench.save_binary(out);
  } else {
    bench.save(out);
  }
}

int cmd_build(const Args& args) {
  PipelineOptions options;
  options.world_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  options.space = space_arg(args).id();
  options.n_archs = args.get_int("archs", 2600, 1);
  options.tune = args.has("tune");
  options.collect_energy = args.has("energy");
  options.collect_peak_memory = args.has("memory");
  options.run_proxy_search = args.has("proxy-search");
  if (args.has("extended-devices")) {
    for (const Device& device : extended_device_catalog())
      options.devices.push_back(device.kind());
  }
  const std::string out = args.get("out", "accel_nasbench.json");

  std::printf("building benchmark: space=%s, %d archs, tune=%s, energy=%s, "
              "memory=%s, proxy-search=%s\n",
              space_name(options.space), options.n_archs,
              options.tune ? "yes" : "no",
              options.collect_energy ? "yes" : "no",
              options.collect_peak_memory ? "yes" : "no",
              options.run_proxy_search ? "yes" : "no");
  const PipelineResult result = construct_benchmark(options);
  std::printf("p* = %s\n", result.p_star.to_string().c_str());
  for (const auto& [name, metrics] : result.test_metrics) {
    std::printf("  %-14s R2 %.3f tau %.3f MAE %.3g\n", name.c_str(),
                metrics.r2, metrics.kendall_tau, metrics.mae);
  }
  save_as(result.bench, out);
  std::printf("saved %s\n", out.c_str());
  return 0;
}

int cmd_convert(const Args& args) {
  const std::string in = args.require("bench");
  const std::string out = args.require("out");
  const AccelNASBench bench = AccelNASBench::open(in);
  save_as(bench, out);
  std::printf("converted %s -> %s (%s)\n", in.c_str(), out.c_str(),
              wants_binary(out) ? "binary .anbb" : "JSON text");
  return 0;
}

int cmd_info(const Args& args) {
  const AccelNASBench bench = AccelNASBench::open(args.require("bench"));
  std::printf("accuracy surrogate: %s\n",
              bench.has_accuracy() ? "installed" : "missing");
  const auto targets = bench.perf_targets();
  std::printf("performance surrogates (%zu):\n", targets.size());
  for (const MetricKey key : targets)
    std::printf("  %s\n", dataset_name(key).c_str());
  register_builtin_spaces();
  const SearchSpace& sp = anb::space(bench.space());
  std::printf("search space: %s, %llu architectures, %d one-hot "
              "features\n",
              sp.name(), static_cast<unsigned long long>(sp.cardinality()),
              sp.feature_dim());
  return 0;
}

int cmd_query(const Args& args) {
  const AccelNASBench bench = AccelNASBench::open(args.require("bench"));
  const SearchSpace& sp = space_arg(args);
  if (sp.id() != bench.space()) {
    usage(("--space " + std::string(sp.name()) +
           " does not match the artifact's space " +
           space_name(bench.space()))
              .c_str());
  }
  const Arch arch = sp.arch_from_string(args.require("arch"));
  if (args.has("device")) {
    const MetricKey key{device_kind_from_name(args.require("device")),
                        perf_metric_from_name(args.get("metric", "Thr"))};
    std::printf("%s %s = %.4f\n", device_kind_name(key.device),
                perf_metric_name(key.metric), bench.query_perf(arch, key));
  } else {
    std::printf("top1 = %.4f\n", bench.query_accuracy(arch));
  }
  return 0;
}

int cmd_search(const Args& args) {
  const AccelNASBench bench = AccelNASBench::open(args.require("bench"));
  register_builtin_spaces();
  if (args.has("space") && space_arg(args).id() != bench.space()) {
    usage("--space does not match the artifact's space");
  }
  const SearchSpace& sp = anb::space(bench.space());
  ParetoSearchConfig config;
  config.key = MetricKey{device_kind_from_name(args.require("device")),
                         perf_metric_from_name(args.get("metric", "Thr"))};
  const int budget = args.get_int("budget", 1000, 1);
  config.n_targets = 5;
  config.n_evals_per_target = std::max(1, budget / config.n_targets);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 5));

  const ParetoOutcome outcome = pareto_search(bench, config);
  TextTable table({"acc (pred)", "perf (pred)", "architecture"});
  for (std::size_t idx : outcome.front) {
    table.add_row({TextTable::num(outcome.accuracy[idx], 4),
                   TextTable::num(outcome.perf[idx], 2),
                   sp.arch_to_string(outcome.archs[idx])});
  }
  table.print(std::cout);
  return 0;
}

int cmd_query_remote(const Args& args) {
  serve::Client client(args.require("socket"));
  if (args.has("shutdown")) {
    client.shutdown_server();
    std::printf("server shut down\n");
    return 0;
  }
  const SearchSpace& sp = space_arg(args);
  const Arch arch = sp.arch_from_string(args.require("arch"));
  const std::uint64_t index = sp.to_index(arch);
  if (args.has("device")) {
    const MetricKey key{device_kind_from_name(args.require("device")),
                        perf_metric_from_name(args.get("metric", "Thr"))};
    std::printf("%s %s = %.4f\n", device_kind_name(key.device),
                perf_metric_name(key.metric),
                client.query_perf(key, index, sp.id()));
  } else {
    std::printf("top1 = %.4f\n", client.query_accuracy(index, sp.id()));
  }
  return 0;
}

int cmd_random(const Args& args) {
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const SearchSpace& sp = space_arg(args);
  const int count = args.get_int("count", 5);
  for (int i = 0; i < count; ++i)
    std::printf("%s\n", sp.arch_to_string(sp.sample(rng)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (command == "build") return cmd_build(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "info") return cmd_info(args);
    if (command == "query") return cmd_query(args);
    if (command == "search") return cmd_search(args);
    if (command == "query-remote") return cmd_query_remote(args);
    if (command == "random") return cmd_random(args);
    usage(("unknown command " + command).c_str());
  } catch (const anb::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
