// Serving throughput: QPS and latency percentiles of the anbd server as
// a function of connection count, with the coalescing micro-batch
// scheduler on vs off (DESIGN.md "Serving & micro-batch coalescing").
// "off" is the same server at batch_max = 1: rows never share a flush,
// so every query runs as its own one-row prediction on a scheduler
// worker.
//
// Each configuration stands up an in-process Server and N blocking
// clients that hammer scalar accuracy queries; wall-clock QPS plus
// per-request p50/p99 come from the client side. Doubles as a
// differential harness: every response is compared bit-for-bit against a
// direct in-process query, and the binary exits non-zero on any
// divergence. At full size the coalescing win is gated: at >= 16
// connections batching must deliver >= 2x the uncoalesced QPS (the
// scheduler's reason to exist — batched SIMD descent amortized across
// clients).
//
// Usage: serve_throughput [requests_per_conn]
//        (default 400; ANB_FAST=1 -> 40 and no perf gate)
// Output: results/serve_throughput.csv

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/serve/client.hpp"
#include "anb/serve/server.hpp"
#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/util/error.hpp"
#include "anb/util/json.hpp"
#include "common.hpp"

namespace anb::bench {
namespace {

/// A deliberately heavy accuracy surrogate (full size: 10 x 1500-tree
/// GBDT ensemble): serving is only interesting when prediction dominates
/// socket chatter, which is the regime a fitted full-size benchmark lives
/// in — and the regime where a batched prediction pays for the
/// coalescer's scheduling. Under the auto-selected masked engine, which
/// anbd runs, measured on a 4-core x86 host: about 200 us/row scalar and
/// 40 us/row in a 32-row batch.
AccelNASBench make_served_bench() {
  Rng probe_rng(1);
  const std::size_t num_features =
      MnasSpace::instance().features(MnasSpace::instance().sample(probe_rng)).size();
  Dataset train(num_features);
  Rng rng(hash_combine(kWorldSeed, 0x5EF));
  const int n_train = fast_mode() ? 200 : 600;
  for (int i = 0; i < n_train; ++i) {
    const auto x = MnasSpace::instance().features(MnasSpace::instance().sample(rng));
    double y = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) y += (j % 7 == 0 ? 2.0 : 0.5) * x[j];
    train.add(x, y + rng.normal(0.0, 0.01));
  }
  GbdtParams member_params;
  member_params.n_estimators = fast_mode() ? 200 : 1500;
  auto ensemble = std::make_unique<EnsembleSurrogate>(
      [member_params] { return std::make_unique<Gbdt>(member_params); },
      /*size=*/fast_mode() ? 3 : 10);
  Rng fit_rng(hash_combine(kWorldSeed, 0xF17));
  ensemble->fit(train, fit_rng);

  AccelNASBench bench;
  bench.set_accuracy_surrogate(std::move(ensemble));
  // The cache would turn the steady-state workload into pure lookups and
  // hide the prediction engine entirely; serving cost is what we measure.
  bench.set_cache_enabled(false);
  return bench;
}

struct ConfigResult {
  std::size_t connections = 0;
  bool coalescing = false;
  std::size_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t rows = 0;
  bool bit_identical = true;
};

ConfigResult run_config(const AccelNASBench& bench,
                        const std::vector<std::uint64_t>& pool,
                        const std::vector<double>& expected,
                        std::size_t connections, bool coalescing,
                        std::size_t requests_per_conn) {
  serve::ServeOptions options;
  if (!coalescing) options.scheduler.batch_max = 1;
  serve::Server server(bench, options);
  server.start();

  std::vector<std::vector<double>> latencies(connections);
  std::vector<bool> exact(connections, true);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client(server.socket_path());
      client.hello(c, 0);
      latencies[c].reserve(requests_per_conn);
      for (std::size_t i = 0; i < requests_per_conn; ++i) {
        const std::size_t pick = (c + i) % pool.size();
        const auto start = std::chrono::steady_clock::now();
        const double got = client.query_accuracy(pool[pick]);
        const auto stop = std::chrono::steady_clock::now();
        latencies[c].push_back(
            std::chrono::duration<double, std::micro>(stop - start).count());
        if (got != expected[pick]) exact[c] = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto wall_stop = std::chrono::steady_clock::now();
  server.stop();

  ConfigResult r;
  r.connections = connections;
  r.coalescing = coalescing;
  r.requests = connections * requests_per_conn;
  r.seconds = std::chrono::duration<double>(wall_stop - wall_start).count();
  r.qps = static_cast<double>(r.requests) / r.seconds;
  std::vector<double> all;
  all.reserve(r.requests);
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  r.p50_us = all[all.size() / 2];
  r.p99_us = all[(all.size() * 99) / 100];
  for (const bool e : exact) r.bit_identical = r.bit_identical && e;
  const serve::ServeReport report = server.report();
  r.batches = report.batches;
  r.rows = report.rows;
  return r;
}

void print_row(const ConfigResult& r) {
  std::printf("conns=%-3zu coalescing=%-3s %7zu req in %6.2fs  %8.0f q/s  "
              "p50=%7.1fus p99=%8.1fus  batches=%-6llu exact=%s\n",
              r.connections, r.coalescing ? "on" : "off", r.requests,
              r.seconds, r.qps, r.p50_us, r.p99_us,
              static_cast<unsigned long long>(r.batches),
              r.bit_identical ? "yes" : "NO");
}

int run(int argc, char** argv) {
  parse_obs_flags(argc, argv);
  const bool has_arg = argc > 1 && std::strcmp(argv[1], "--trace") != 0;
  const std::size_t requests_per_conn =
      has_arg ? static_cast<std::size_t>(std::atoi(argv[1]))
              : (fast_mode() ? 40 : 400);
  ANB_CHECK(requests_per_conn >= 1,
            "serve_throughput: requests_per_conn must be >= 1");
  print_header("serve throughput: coalescing micro-batch scheduler",
               "benchmark-as-a-service extension (anbd)");

  const AccelNASBench bench = make_served_bench();
  const std::size_t pool_size = 64;
  std::vector<std::uint64_t> pool;
  std::vector<double> expected;
  Rng rng(hash_combine(kWorldSeed, 0xA9C));
  while (pool.size() < pool_size) {
    const Arch arch = MnasSpace::instance().sample(rng);
    pool.push_back(MnasSpace::instance().to_index(arch));
    expected.push_back(bench.query_accuracy(arch));
  }

  const std::vector<std::size_t> conn_counts =
      fast_mode() ? std::vector<std::size_t>{1, 4}
                  : std::vector<std::size_t>{1, 4, 16, 32};
  std::vector<ConfigResult> results;
  for (const std::size_t conns : conn_counts) {
    for (const bool coalescing : {false, true}) {
      results.push_back(run_config(bench, pool, expected, conns, coalescing,
                                   requests_per_conn));
      print_row(results.back());
    }
  }

  const std::string path = results_path("serve_throughput.csv");
  std::string csv =
      "connections,coalescing,requests,seconds,qps,p50_us,p99_us,"
      "batches,rows,bit_identical\n";
  for (const ConfigResult& r : results) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%zu,%s,%zu,%.4f,%.0f,%.1f,%.1f,%llu,%llu,%s\n",
                  r.connections, r.coalescing ? "on" : "off", r.requests,
                  r.seconds, r.qps, r.p50_us, r.p99_us,
                  static_cast<unsigned long long>(r.batches),
                  static_cast<unsigned long long>(r.rows),
                  r.bit_identical ? "yes" : "no");
    csv += line;
  }
  write_text_file(path, csv);
  std::printf("wrote %s\n", path.c_str());

  obs::gauge("anb.serve.bench_qps_coalesced").set(results.back().qps);
  export_obs("serve_throughput");

  bool ok = true;
  for (const ConfigResult& r : results) {
    if (!r.bit_identical) {
      std::printf("FAILED: served values diverged from direct queries "
                  "(conns=%zu coalescing=%s)\n",
                  r.connections, r.coalescing ? "on" : "off");
      ok = false;
    }
  }

  // Perf gate (full size only): at >= 16 connections the coalesced
  // configuration must at least double the uncoalesced QPS. Fixed costs
  // swamp tiny smoke runs, so ANB_FAST skips the floor (the smoke run
  // still enforces bit-exactness above).
  if (!fast_mode()) {
    bool met = false;
    double best = 0.0;
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
      const ConfigResult& off = results[i];
      const ConfigResult& on = results[i + 1];
      if (off.connections < 16) continue;
      const double ratio = on.qps / off.qps;
      best = std::max(best, ratio);
      std::printf("coalescing gain at %zu conns: %.2fx\n", off.connections,
                  ratio);
      if (ratio >= 2.0) met = true;
    }
    if (!met) {
      std::printf("FAILED: coalescing never reached the 2x QPS floor at "
                  ">= 16 connections (best %.2fx)\n", best);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace anb::bench

int main(int argc, char** argv) { return anb::bench::run(argc, argv); }
