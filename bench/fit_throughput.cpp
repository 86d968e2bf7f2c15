// Microbenchmark for the parallel training engine (DESIGN.md "Parallel
// training & the binned matrix").
//
// Fits each tree-surrogate family (xgb / lgb / rf) on 1k/5k/20k-row
// datasets over the real 63-dim architecture encoding, once pinned to a
// single thread and once with all hardware threads, and reports the
// speedup. The `xgb_trial` rows fit the shape benchmark construction fits
// most: a full-size SMAC trial of the xgb family (the 1600-row tuning
// subsample, depth 6, subsample 0.8, colsample 0.75), once under each
// dispatch target the host runs (scalar, then avx2, avx512 or neon),
// forced, so the rows time the tree builder's scalar scatter against each
// vector build of its split kernel. The sweep rows run under the default
// dispatch; the `target` column names the target of every row.
// Doubles as a differential harness: the binary exits non-zero unless the
// serialized model fitted at every thread count is byte-identical to the
// single-threaded one, and each target's xgb_trial model to the scalar
// one — the determinism contracts the engine is built on.
//
// Usage: fit_throughput [n_rows] [--trace]
//                                  (one size; default 1k/5k/20k sweep,
//                                   ANB_FAST=1 -> 1000 only; the
//                                   xgb_trial rows run every time)
// Output: results/fit_throughput.csv + fit_throughput_metrics.csv
//         (+ fit_throughput_trace.json with --trace / ANB_TRACE)

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anb/anb/tuning.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/util/parallel.hpp"
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

/// Same structured synthetic target as query_throughput: additive one-hot
/// weights plus sparse interactions, so fitted trees are realistically
/// deep without running the training simulator.
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

/// One family at one dataset size: fit wall-clock at 1 thread and at all
/// hardware threads, plus whether the two models serialize identically.
struct RowResult {
  std::string name;
  std::string target;
  std::size_t rows = 0;
  unsigned threads = 1;
  double serial_secs = 0.0;
  double parallel_secs = 0.0;
  bool bit_identical = false;
  std::string model;  ///< the single-threaded fit, serialized
};

/// Fits a fresh model from `make_model` with the given pinned thread count
/// and returns {seconds, serialized payload}. The fit seed is fixed per
/// call site, so any payload difference is a determinism violation.
template <typename MakeModel>
std::pair<double, std::string> fit_once(const MakeModel& make_model,
                                        const Dataset& train,
                                        std::uint64_t fit_seed,
                                        unsigned num_threads) {
  set_default_num_threads(num_threads);
  auto model = make_model();
  Rng rng(fit_seed);
  const double secs = seconds_of([&] { model.fit(train, rng); });
  set_default_num_threads(0);
  return {secs, model.to_json().dump()};
}

template <typename MakeModel>
RowResult bench_family(const std::string& name, const MakeModel& make_model,
                       const Dataset& train, std::uint64_t fit_seed) {
  RowResult r;
  r.name = name;
  r.target = simd::target_name(simd::active_target());
  r.rows = train.size();
  r.threads = std::max(1u, std::thread::hardware_concurrency());
  const auto [serial_secs, serial_json] =
      fit_once(make_model, train, fit_seed, 1);
  const auto [parallel_secs, parallel_json] =
      fit_once(make_model, train, fit_seed, r.threads);
  r.serial_secs = serial_secs;
  r.parallel_secs = parallel_secs;
  r.bit_identical = serial_json == parallel_json;
  r.model = serial_json;
  return r;
}

void print_row(const RowResult& r) {
  std::printf("%-9s %-6s rows=%-6zu serial=%8.3fs  parallel=%8.3fs (%u "
              "threads, %5.2fx)  identical=%s\n",
              r.name.c_str(), r.target.c_str(), r.rows, r.serial_secs,
              r.parallel_secs, r.threads, r.serial_secs / r.parallel_secs,
              r.bit_identical ? "yes" : "NO");
}

int run(int argc, char** argv) {
  parse_obs_flags(argc, argv);
  std::vector<int> sizes;
  if (argc > 1 && std::strcmp(argv[1], "--trace") != 0) {
    sizes = {std::atoi(argv[1])};
  } else if (fast_mode()) {
    sizes = {1000};
  } else {
    sizes = {1000, 5000, 20000};
  }
  for (const int n : sizes)
    ANB_CHECK(n >= 16, "fit_throughput: n_rows must be >= 16");
  print_header("fit throughput: serial vs parallel training",
               "parallel training engine (this repo's extension)");

  Rng probe_rng(1);
  const std::size_t num_features =
      MnasSpace::instance().features(MnasSpace::instance().sample(probe_rng)).size();
  std::vector<double> w(num_features);
  Rng wrng(hash_combine(kWorldSeed, 0xBEEF));
  for (double& v : w) v = wrng.normal();

  // Moderate ensemble sizes: large enough that histogram and per-tree
  // parallelism dominate, small enough for a sane CI runtime.
  GbdtParams xgb_params;
  xgb_params.n_estimators = 150;
  xgb_params.max_depth = 4;
  HistGbdtParams lgb_params;
  lgb_params.n_estimators = 200;
  lgb_params.max_leaves = 31;
  lgb_params.max_bins = 64;
  RandomForestParams rf_params;
  rf_params.n_trees = 64;
  rf_params.max_depth = 10;

  std::vector<RowResult> results;
  for (const int n : sizes) {
    const Dataset train = make_dataset(
        n, hash_combine(kWorldSeed, static_cast<std::uint64_t>(n)), w,
        num_features);
    results.push_back(bench_family(
        "xgb", [&] { return Gbdt(xgb_params); }, train, 11));
    print_row(results.back());
    results.push_back(bench_family(
        "lgb", [&] { return HistGbdt(lgb_params); }, train, 12));
    print_row(results.back());
    results.push_back(bench_family(
        "rf", [&] { return RandomForest(rf_params); }, train, 13));
    print_row(results.back());
  }

  GbdtParams trial_params;
  trial_params.n_estimators = 1000;  // mid-range of the tuned 300..2000
  trial_params.max_depth = 6;
  trial_params.subsample = 0.8;
  trial_params.colsample = 0.75;
  const int trial_rows = TuneOptions{}.tuning_subsample;
  const Dataset trial = make_dataset(
      trial_rows,
      hash_combine(kWorldSeed, static_cast<std::uint64_t>(trial_rows)), w,
      num_features);
  std::string scalar_model;
  for (const simd::Target target :
       {simd::Target::kScalar, simd::Target::kAvx2, simd::Target::kAvx512,
        simd::Target::kNeon}) {
    if (!simd::cpu_supports(target)) continue;
    const simd::ScopedTarget forced(target);
    RowResult r = bench_family(
        "xgb_trial", [&] { return Gbdt(trial_params); }, trial, 14);
    if (target == simd::Target::kScalar) scalar_model = r.model;
    r.bit_identical = r.bit_identical && r.model == scalar_model;
    results.push_back(std::move(r));
    print_row(results.back());
  }

  const std::string path = results_path("fit_throughput.csv");
  std::string csv =
      "name,target,rows,threads,serial_secs,parallel_secs,speedup,"
      "bit_identical\n";
  for (const auto& r : results) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s,%s,%zu,%u,%.4f,%.4f,%.3f,%s\n",
                  r.name.c_str(), r.target.c_str(), r.rows, r.threads,
                  r.serial_secs, r.parallel_secs,
                  r.serial_secs / r.parallel_secs,
                  r.bit_identical ? "yes" : "no");
    csv += line;
  }
  write_text_file(path, csv);
  std::printf("wrote %s\n", path.c_str());
  export_obs("fit_throughput");

  bool all_exact = true;
  for (const auto& r : results) all_exact = all_exact && r.bit_identical;
  if (!all_exact) {
    std::printf("FAILED: a parallel fit diverged from the single-threaded "
                "model, or a vector target's from the scalar one\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace anb::bench

int main(int argc, char** argv) { return anb::bench::run(argc, argv); }
