// Microbenchmark for the batched query engine (DESIGN.md "Batched
// prediction & the query cache").
//
// Measures rows/sec of every surrogate family under three prediction
// paths — per-row predict(), serial predict_batch() over one flattened
// matrix, and parallel predict_matrix() — plus cold/warm batched queries
// through AccelNASBench's architecture-keyed cache. Doubles as a
// differential harness: the binary exits non-zero unless every batched
// value is bit-identical to the scalar path.
//
// Usage: query_throughput [n_rows]   (default 20000; ANB_FAST=1 -> 2000)
// Output: results/query_throughput.csv

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/flat_forest.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/util/error.hpp"
#include "anb/util/simd.hpp"
#include "common.hpp"

namespace anb::bench {
namespace {

double seconds_of(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Times `body` over enough repetitions to accumulate a measurable
/// interval, after one untimed warmup call. Returns seconds per call.
double time_per_call(const std::function<void()>& body) {
  body();  // warmup: touch caches, fault in pages
  int reps = 1;
  while (true) {
    const double secs = seconds_of([&] {
      for (int r = 0; r < reps; ++r) body();
    });
    if (secs > 0.05 || reps >= (1 << 16)) return secs / reps;
    reps *= 4;
  }
}

/// Synthetic-but-structured target over the real 63-dim architecture
/// encoding: additive one-hot weights plus a few pairwise interactions.
/// Trees fit this well, which keeps the fitted ensembles realistically
/// deep/full-sized without running the training simulator.
double synthetic_target(std::span<const double> x,
                        std::span<const double> w) {
  double y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) y += w[i] * x[i];
  y += 2.0 * x[0] * x[7] - 1.5 * x[3] * x[20] + x[11] * x[42];
  return y;
}

Dataset make_dataset(int n, std::uint64_t seed, std::span<const double> w,
                     std::size_t num_features) {
  Dataset ds(num_features);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const auto x = MnasSpace::instance().features(MnasSpace::instance().sample(rng));
    ds.add(x, synthetic_target(x, w));
  }
  return ds;
}

struct RowResult {
  std::string name;
  std::size_t rows = 0;
  double scalar_rps = 0.0;
  double batched_rps = 0.0;
  double parallel_rps = 0.0;
  bool bit_identical = false;
};

/// Benchmarks one fitted surrogate on the query matrix; verifies that the
/// batched and parallel outputs match the scalar path bit for bit.
RowResult bench_model(const std::string& name, const Surrogate& model,
                      std::span<const double> rows, std::size_t num_features) {
  const std::size_t n = rows.size() / num_features;
  std::vector<double> scalar_out(n), batch_out(n), matrix_out(n);

  RowResult result;
  result.name = name;
  result.rows = n;
  const double scalar_secs = time_per_call([&] {
    for (std::size_t i = 0; i < n; ++i)
      scalar_out[i] = model.predict(rows.subspan(i * num_features,
                                                 num_features));
  });
  const double batch_secs = time_per_call(
      [&] { model.predict_batch(rows, num_features, batch_out); });
  const double matrix_secs = time_per_call(
      [&] { model.predict_matrix(rows, num_features, matrix_out); });

  result.scalar_rps = static_cast<double>(n) / scalar_secs;
  result.batched_rps = static_cast<double>(n) / batch_secs;
  result.parallel_rps = static_cast<double>(n) / matrix_secs;
  result.bit_identical =
      std::memcmp(scalar_out.data(), batch_out.data(),
                  n * sizeof(double)) == 0 &&
      std::memcmp(scalar_out.data(), matrix_out.data(),
                  n * sizeof(double)) == 0;
  return result;
}

// ---------------------------------------------------------------------------
// Per-engine descent throughput (DESIGN.md "SIMD descent"). Each flat-
// forest family runs serial predict_batch under every forced descent
// engine and under kAuto's own dispatch; engines a fitted forest cannot
// support (shape outside the masked eligibility rules) are reported as
// unavailable rather than timed. Speedups are relative to the
// interleaved walk at the same batch size — the pre-SIMD baseline —
// which keeps them comparable across hosts even though absolute rows/sec
// are not. Besides the full query matrix, every engine is timed on a
// 40-row batch (an NSGA-II population), a 2-row batch (kMaskedMinRows,
// the smallest batch auto sends to the masked engine) and a 1-row batch
// (a scalar query), keyed `<engine>@40`, `<engine>@2` and `<engine>@1`:
// there a batch is all tail block. The `auto@<m>` rows pin the cutoff.
// A small-batch timing walks up to kSmallBatchSlices consecutive batches
// of distinct rows, as a search asks about a new architecture each time.
// Re-asking one row would let the branch predictor learn its every turn
// and loop exit, which real queries never allow.
// ---------------------------------------------------------------------------

constexpr std::size_t kSmallBatchSlices = 256;

struct PathResult {
  std::string model;
  std::string path;
  bool available = false;
  double rps = 0.0;
  double speedup = 0.0;  ///< vs the interleaved walk on the same host
  bool bit_identical = true;
};

std::vector<PathResult> bench_paths(const std::string& name,
                                    const Surrogate& model,
                                    std::span<const double> rows,
                                    std::size_t num_features) {
  const std::size_t n = rows.size() / num_features;
  std::vector<double> ref(n), out(n);
  {
    ScopedDescentPath sp(DescentPath::kInterleaved);
    model.predict_batch(rows, num_features, ref);
  }
  const DescentPath kPaths[] = {DescentPath::kInterleaved, DescentPath::kMasked,
                                DescentPath::kAuto};
  const std::size_t kBatchRows[] = {n, 40, kMaskedMinRows, 1};
  std::vector<PathResult> results;
  for (std::size_t b = 0; b < std::size(kBatchRows); ++b) {
    const std::size_t m = kBatchRows[b];
    if (b > 0 && m >= n) continue;
    const std::string suffix = b == 0 ? "" : "@" + std::to_string(m);
    const std::size_t slices =
        b == 0 ? 1 : std::min(n / m, kSmallBatchSlices);
    const auto run_batches = [&] {
      for (std::size_t k = 0; k < slices; ++k)
        model.predict_batch(
            rows.subspan(k * m * num_features, m * num_features),
            num_features, std::span<double>(out).subspan(k * m, m));
    };
    const std::size_t interleaved = results.size();
    for (const DescentPath path : kPaths) {
      PathResult r;
      r.model = name;
      r.path = descent_path_name(path) + suffix;
      ScopedDescentPath sp(path);
      try {
        run_batches();  // probe
      } catch (const Error&) {
        results.push_back(r);
        continue;
      }
      r.available = true;
      const double secs = time_per_call(run_batches);
      r.rps = static_cast<double>(slices * m) / secs;
      r.bit_identical = std::memcmp(ref.data(), out.data(),
                                    slices * m * sizeof(double)) == 0;
      r.speedup = results.size() == interleaved
                      ? 1.0
                      : r.rps / results[interleaved].rps;
      results.push_back(r);
    }
  }
  return results;
}

void print_path_row(const PathResult& r) {
  if (!r.available) {
    std::printf("  %-14s %-15s unavailable (forest shape outside "
                "eligibility)\n",
                r.model.c_str(), r.path.c_str());
    return;
  }
  std::printf("  %-14s %-15s %10.0f r/s  (%5.2fx interleaved)  exact=%s\n",
              r.model.c_str(), r.path.c_str(), r.rps, r.speedup,
              r.bit_identical ? "yes" : "NO");
}

void print_row(const RowResult& r) {
  std::printf("%-18s rows=%-6zu scalar=%10.0f r/s  batched=%10.0f r/s "
              "(%5.2fx)  parallel=%10.0f r/s (%5.2fx)  exact=%s\n",
              r.name.c_str(), r.rows, r.scalar_rps, r.batched_rps,
              r.batched_rps / r.scalar_rps, r.parallel_rps,
              r.parallel_rps / r.scalar_rps, r.bit_identical ? "yes" : "NO");
}

int run(int argc, char** argv) {
  parse_obs_flags(argc, argv);
  const bool has_rows_arg = argc > 1 && std::strcmp(argv[1], "--trace") != 0;
  const int n_rows = has_rows_arg ? std::atoi(argv[1])
                                  : (fast_mode() ? 2000 : 20000);
  ANB_CHECK(n_rows >= 1, "query_throughput: n_rows must be >= 1");
  print_header("query throughput: scalar vs batched prediction",
               "batched query engine (this repo's extension)");

  // Fitted models. Training size only shapes the trees; query cost is what
  // we measure, so a modest train set keeps setup fast.
  Rng probe_rng(1);
  const std::size_t num_features =
      MnasSpace::instance().features(MnasSpace::instance().sample(probe_rng)).size();
  std::vector<double> w(num_features);
  Rng wrng(hash_combine(kWorldSeed, 0xBEEF));
  for (double& v : w) v = wrng.normal();

  const int n_train = fast_mode() ? 400 : 1000;
  const Dataset train =
      make_dataset(n_train, hash_combine(kWorldSeed, 1), w, num_features);
  const Dataset svr_train = make_dataset(std::min(n_train, 500),
                                         hash_combine(kWorldSeed, 2), w,
                                         num_features);

  Rng fit_rng(hash_combine(kWorldSeed, 3));
  Gbdt gbdt;
  gbdt.fit(train, fit_rng);
  HistGbdt hist;
  hist.fit(train, fit_rng);
  RandomForest forest;
  forest.fit(train, fit_rng);
  Svr svr;
  svr.fit(svr_train, fit_rng);
  GbdtParams member_params;
  member_params.n_estimators = 300;
  EnsembleSurrogate ensemble(
      [member_params] { return std::make_unique<Gbdt>(member_params); },
      /*size=*/5);
  ensemble.fit(train, fit_rng);

  // Query matrix: n_rows freshly sampled architectures.
  Rng qrng(hash_combine(kWorldSeed, 4));
  std::vector<Arch> archs;
  archs.reserve(static_cast<std::size_t>(n_rows));
  std::vector<double> rows;
  rows.reserve(static_cast<std::size_t>(n_rows) * num_features);
  for (int i = 0; i < n_rows; ++i) {
    archs.push_back(MnasSpace::instance().sample(qrng));
    const auto x = MnasSpace::instance().features(archs.back());
    rows.insert(rows.end(), x.begin(), x.end());
  }

  std::vector<RowResult> results;
  results.push_back(bench_model("gbdt", gbdt, rows, num_features));
  results.push_back(bench_model("hist_gbdt", hist, rows, num_features));
  results.push_back(bench_model("random_forest", forest, rows, num_features));
  results.push_back(bench_model("svr", svr, rows, num_features));
  results.push_back(bench_model("ensemble_gbdt", ensemble, rows,
                                num_features));
  for (const auto& r : results) print_row(r);

  // Per-engine sweep over the flat-forest families (svr has no forest;
  // the ensemble delegates to its gbdt members, already covered).
  std::printf("\ndescent engines (forced, serial predict_batch, target=%s):\n",
              simd::target_name(simd::active_target()));
  const std::pair<const char*, const Surrogate*> kForestModels[] = {
      {"gbdt", &gbdt}, {"hist_gbdt", &hist}, {"random_forest", &forest}};
  std::vector<PathResult> path_results;
  for (const auto& [pname, pmodel] : kForestModels) {
    const std::vector<PathResult> rs =
        bench_paths(pname, *pmodel, rows, num_features);
    for (const PathResult& r : rs) print_path_row(r);
    path_results.insert(path_results.end(), rs.begin(), rs.end());
  }

  // Perf gate: on AVX2 hardware at full size, the masked engine must beat
  // the interleaved walk by >= 3x wherever it is available (the PR's
  // acceptance floor; ~7x measured on dev hardware, so 3x leaves headroom
  // for noisy CI neighbours). Skipped in fast/small runs where fixed
  // costs dominate, and on non-AVX2 hosts, where auto dispatch falls back
  // to the interleaved walk itself (>= 1x by construction).
  bool gate_ok = true;
  const bool gate_active = !fast_mode() && n_rows >= 4096 &&
                           simd::cpu_supports(simd::Target::kAvx2);
  for (const PathResult& r : path_results) {
    if (!r.available || r.path != "masked" || !gate_active) continue;
    if (r.speedup < 3.0) {
      std::printf("FAILED: %s masked engine %.2fx interleaved (< 3x floor)\n",
                  r.model.c_str(), r.speedup);
      gate_ok = false;
    }
  }

  // End-to-end benchmark queries through the architecture-keyed cache:
  // scalar loop with the cache disabled, then a cold batched call (all
  // misses) and a warm one (all hits).
  AccelNASBench nasbench;
  nasbench.set_accuracy_surrogate(surrogate_from_json(gbdt.to_json()));
  const std::size_t n = archs.size();
  std::vector<double> scalar_vals(n);

  nasbench.set_cache_enabled(false);
  const double scalar_secs = time_per_call([&] {
    for (std::size_t i = 0; i < n; ++i)
      scalar_vals[i] = nasbench.query_accuracy(archs[i]);
  });
  nasbench.set_cache_enabled(true);
  nasbench.clear_cache();

  std::vector<double> cold_vals, warm_vals;
  const double cold_secs =
      seconds_of([&] { cold_vals = nasbench.query_accuracy_batch(archs); });
  const QueryCacheStats after_cold = nasbench.cache_stats();
  const double warm_secs = time_per_call(
      [&] { warm_vals = nasbench.query_accuracy_batch(archs); });
  const QueryCacheStats after_warm = nasbench.cache_stats();

  const double scalar_rps = static_cast<double>(n) / scalar_secs;
  RowResult cold;
  cold.name = "bench_query_cold";
  cold.rows = n;
  cold.scalar_rps = scalar_rps;
  cold.batched_rps = static_cast<double>(n) / cold_secs;
  cold.parallel_rps = cold.batched_rps;
  cold.bit_identical =
      std::memcmp(scalar_vals.data(), cold_vals.data(),
                  n * sizeof(double)) == 0;
  RowResult warm;
  warm.name = "bench_query_warm";
  warm.rows = n;
  warm.scalar_rps = scalar_rps;
  warm.batched_rps = static_cast<double>(n) / warm_secs;
  warm.parallel_rps = warm.batched_rps;
  warm.bit_identical =
      std::memcmp(scalar_vals.data(), warm_vals.data(),
                  n * sizeof(double)) == 0;
  results.push_back(cold);
  results.push_back(warm);
  print_row(cold);
  print_row(warm);
  std::printf("cache: cold hits=%llu misses=%llu  (after warm: hits=%llu "
              "misses=%llu)\n",
              static_cast<unsigned long long>(after_cold.hits),
              static_cast<unsigned long long>(after_cold.misses),
              static_cast<unsigned long long>(after_warm.hits),
              static_cast<unsigned long long>(after_warm.misses));

  const std::string path = results_path("query_throughput.csv");
  std::string csv =
      "name,rows,scalar_rows_per_sec,batched_rows_per_sec,"
      "parallel_rows_per_sec,batched_speedup,parallel_speedup,"
      "bit_identical\n";
  for (const auto& r : results) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s,%zu,%.0f,%.0f,%.0f,%.3f,%.3f,%s\n",
                  r.name.c_str(), r.rows, r.scalar_rps, r.batched_rps,
                  r.parallel_rps, r.batched_rps / r.scalar_rps,
                  r.parallel_rps / r.scalar_rps,
                  r.bit_identical ? "yes" : "no");
    csv += line;
  }
  write_text_file(path, csv);
  std::printf("wrote %s\n", path.c_str());

  // Trajectory: append one row per (model, engine) so the committed CSV
  // records how engine speedups evolve across revisions. CI gates on the
  // speedup column — a same-host ratio, comparable across hardware —
  // not absolute rows/sec (tools/check_throughput_trajectory.py).
  const char* rev_env = std::getenv("ANB_GIT_REV");
  const std::string rev = rev_env != nullptr ? rev_env : "unknown";
  const std::string traj_path =
      results_path("query_throughput_trajectory.csv");
  std::string traj;
  if (std::filesystem::exists(traj_path)) traj = read_text_file(traj_path);
  if (traj.empty())
    traj = "git_rev,model,path,rows_per_sec,speedup_vs_interleaved\n";
  for (const PathResult& r : path_results) {
    if (!r.available) continue;
    char line[256];
    std::snprintf(line, sizeof(line), "%s,%s,%s,%.0f,%.3f\n", rev.c_str(),
                  r.model.c_str(), r.path.c_str(), r.rps, r.speedup);
    traj += line;
  }
  write_text_file(traj_path, traj);
  std::printf("appended %s (rev %s)\n", traj_path.c_str(), rev.c_str());

  // rows/sec gauges: timing lives in the bench (the library never reads
  // the clock — see tools/anb_lint raw-timing rule), the registry carries
  // the last measured value for the metrics CSV.
  obs::gauge("anb.query.scalar_rows_per_sec").set(scalar_rps);
  obs::gauge("anb.query.batched_rows_per_sec").set(warm.batched_rps);
  export_obs("query_throughput");

  bool all_exact = true;
  for (const auto& r : results) all_exact = all_exact && r.bit_identical;
  for (const auto& r : path_results) all_exact = all_exact && r.bit_identical;
  if (!all_exact) {
    std::printf("FAILED: batched prediction diverged from the scalar path\n");
    return 1;
  }
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace anb::bench

int main(int argc, char** argv) { return anb::bench::run(argc, argv); }
