#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "anb/anb/pipeline.hpp"
#include "anb/obs/registry.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/util/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using anb::AccelNASBench;
using anb::Arch;

/// Repeats of the set-up whose median is setup_s.
constexpr int kSetupRepeats = 5;
/// Architectures in the untuned set-up artifact.
constexpr int kSetupArchs = 400;

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("FAILED: %s\n", what.c_str());
  }
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed,
                 const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::printf("FAILED: %llu of %llu %s\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted), what.c_str());
  }
}

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

double seconds_since(trace::Clock start) {
  return static_cast<double>(trace::now_ns() - start) * 1e-9;
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s(pthread_t thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  return clock_s(clock);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::map<std::string, std::uint64_t> registry_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const anb::obs::MetricValue& m : anb::obs::snapshot_metrics()) {
    if (m.kind == anb::obs::MetricKind::kCounter) out[m.name] = m.value;
  }
  return out;
}

double counter_delta(const std::map<std::string, std::uint64_t>& before,
                     const std::map<std::string, std::uint64_t>& after,
                     const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0.0;
  const auto b = before.find(name);
  const std::uint64_t base = b == before.end() ? 0 : b->second;
  return static_cast<double>(a->second - base);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_artifact(const std::string& a, const std::string& b) {
  if (std::filesystem::file_size(a) != std::filesystem::file_size(b)) {
    return false;
  }
  return AccelNASBench::open(a).to_json().dump() ==
         AccelNASBench::open(b).to_json().dump();
}

double min_tau(const anb::PipelineResult& result) {
  double tau = 1.0;
  for (const auto& [name, metrics] : result.test_metrics) {
    tau = std::min(tau, metrics.kendall_tau);
  }
  return tau;
}

std::vector<Arch> sample_archs(std::uint64_t seed, std::size_t n) {
  anb::Rng rng(seed);
  std::vector<Arch> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(anb::MnasSpace::instance().sample(rng));
  }
  return out;
}

bool reopened_matches(const AccelNASBench& bench, const std::string& path,
                      const std::vector<Arch>& probes) {
  const AccelNASBench reopened =
      AccelNASBench::open(path, anb::io::MapMode::kMap);
  if (reopened.perf_targets() != bench.perf_targets()) return false;
  bool ok = bit_identical(reopened.query_accuracy_batch(probes),
                          bench.query_accuracy_batch(probes));
  for (const anb::MetricKey key : bench.perf_targets()) {
    ok = ok && bit_identical(reopened.query_perf_batch(probes, key),
                             bench.query_perf_batch(probes, key));
  }
  return ok;
}

SetupArtifact make_setup_artifact(std::uint64_t probe_seed,
                                  const std::string& path, Report& report) {
  anb::PipelineOptions options;
  options.n_archs = kSetupArchs;

  SetupArtifact out;
  std::vector<double> setup, save, open;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const trace::Clock t0 = trace::now_ns();
    anb::PipelineResult built = anb::construct_benchmark(options);
    const trace::Clock t1 = trace::now_ns();
    built.bench.save_binary(path);
    const trace::Clock t2 = trace::now_ns();
    out.bench = AccelNASBench::open(path, anb::io::MapMode::kMap);
    const trace::Clock t3 = trace::now_ns();
    setup.push_back(static_cast<double>(t3 - t0) * 1e-9);
    save.push_back(static_cast<double>(t2 - t1) * 1e-9);
    open.push_back(static_cast<double>(t3 - t2) * 1e-9);

    if (r == 0) {
      out.min_tau = min_tau(built);
      report.op(built.skipped_datasets.empty() &&
                    built.test_metrics.size() == 9,
                "set-up artifact skipped a dataset");
      report.op(reopened_matches(built.bench, path,
                                 sample_archs(probe_seed, 128)),
                "set-up artifact reopened with different answers");
    }
  }
  out.setup_s = median(setup);
  out.save_s = median(save);
  out.open_s = median(open);
  out.bytes = static_cast<double>(std::filesystem::file_size(path));
  std::printf("setup: %d x (untuned build of %d archs + save + open): "
              "median %.3fs, min_tau=%.4f, %.0f bytes\n",
              kSetupRepeats, kSetupArchs, out.setup_s, out.min_tau, out.bytes);
  return out;
}

void report_artifact(const SetupArtifact& artifact, Report& report) {
  report.set("setup_s", artifact.setup_s);
  report.set("min_tau", artifact.min_tau);
  report.set("anb.artifact.save_s", artifact.save_s);
  report.set("anb.artifact.open_s", artifact.open_s);
  report.set("anb.artifact.bytes", artifact.bytes);
}

}  // namespace perfbench
