// The Accel-NASBench end-to-end benchmark program. run.py builds it and
// passes the command line through:
//
//   anb_perfbench --workload build|search|serve --seed N --seconds S
//                 --trace 0|1 --out DIR
//
// Every line before the last is for people: set-up, per-operation rows,
// the environment and failures. The last line is one JSON object with the
// keys attempted, failed and values, the metrics the workload measured by
// their names in BENCHMARK.json; run.py adds the units and picks the
// end-to-end or per-layer list. The exit code is 0 only when no operation
// or correctness check failed.

#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "anb/obs/span.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/simd.hpp"
#include "common.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "anb_perfbench: %s\nusage: anb_perfbench --workload "
               "build|search|serve --seed N --seconds S --trace 0|1 "
               "--out DIR\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* text, std::uint64_t max, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-' || v > max) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(value, ~std::uint64_t{0}, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(parse_uint(value, 3600, "--seconds"));
    } else if (flag == "--trace") {
      args.trace = parse_uint(value, 1, "--trace") == 1;
      have_trace = true;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "build" && args.workload != "search" &&
      args.workload != "serve") {
    usage("--workload must be build, search or serve");
  }
  if (!have_seed || !have_trace || args.seconds < 1 || args.out_dir.empty()) {
    usage("--seed, --seconds >= 1, --trace and --out are required");
  }
  return args;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void print_environment() {
  const char* rev = std::getenv("PERFBENCH_GIT_REV");
  std::printf("env: nproc=%d ANB_NUM_THREADS=%u simd=%s build_type=%s "
              "git_rev=%s\n",
              cpu_count(), anb::default_num_threads(),
              anb::simd::target_name(anb::simd::active_target()),
              PERFBENCH_BUILD_TYPE, rev != nullptr ? rev : "unknown");
}

/// The result line run.py turns into the benchmark's result: the ops
/// counts and every finite value the workload set, by name.
void print_result(Report& report) {
  std::string json;
  for (const auto& [name, value] : report.values()) {
    if (!std::isfinite(value)) {
      report.op(false, "metric not finite: " + name);
      continue;
    }
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    json += std::string(json.empty() ? "" : ", ") + "\"" + name +
            "\": " + text;
  }
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"values\": {%s}}\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), json.c_str());
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.out_dir);
  // The library's own spans stay off: the traced run records spans from
  // the benchmark's files only.
  anb::obs::set_trace_enabled(false);
  print_environment();

  Report report;
  try {
    if (args.workload == "build") {
      run_build(args, report);
    } else if (args.workload == "search") {
      run_search(args, report);
    } else {
      run_serve(args, report);
    }
  } catch (const std::exception& e) {
    report.op(false, std::string("uncaught exception: ") + e.what());
  }
  std::printf("peak_rss_mb %.1f MB\n", peak_rss_mb());

  if (args.trace) {
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".jsonl";
    trace::write_jsonl(path);
    std::printf("trace: %zu spans written to %s\n", trace::spans().size(),
                path.c_str());
  }
  if (report.attempted() == 0) report.op(false, "no operation attempted");
  print_result(report);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
