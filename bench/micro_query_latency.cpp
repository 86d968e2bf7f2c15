// E8 — microbenchmark: zero-cost query latency.
//
// §2.1 claims surrogate benchmarks answer accuracy/performance queries
// "within a few milliseconds without model training and on-device
// measurements". This google-benchmark binary measures the actual cost of
// AccelNASBench::query_* per surrogate family, plus the encoding and
// sampling primitives a NAS optimizer calls in its inner loop.

#include <benchmark/benchmark.h>

#include <optional>

#include "anb/anb/benchmark.hpp"
#include "anb/anb/tuning.hpp"
#include "anb/obs/obs.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/flat_forest.hpp"
#include "anb/anb/pipeline.hpp"
#include "anb/util/simd.hpp"
#include "common.hpp"

namespace {

using namespace anb;

Dataset small_training_set() {
  const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
  Rng rng(1);
  Dataset ds(static_cast<std::size_t>(MnasSpace::instance().feature_dim()));
  for (int i = 0; i < 800; ++i) {
    const Arch a = MnasSpace::instance().sample(rng);
    ds.add(MnasSpace::instance().features(a),
           sim->train(a, canonical_p_star(), 0).top1);
  }
  return ds;
}


std::unique_ptr<Surrogate> fitted(SurrogateKind kind) {
  static const Dataset train = small_training_set();
  auto model = make_default_surrogate(kind);
  Rng rng(2);
  model->fit(train, rng);
  return model;
}

void BM_SampleArchitecture(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MnasSpace::instance().sample(rng));
  }
}
BENCHMARK(BM_SampleArchitecture);

void BM_EncodeFeatures(benchmark::State& state) {
  Rng rng(4);
  const Arch a = MnasSpace::instance().sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MnasSpace::instance().features(a));
  }
}
BENCHMARK(BM_EncodeFeatures);

void BM_QuerySurrogate(benchmark::State& state) {
  const auto kind = static_cast<SurrogateKind>(state.range(0));
  const auto model = fitted(kind);
  Rng rng(5);
  const auto x = MnasSpace::instance().features(MnasSpace::instance().sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict(x));
  }
  state.SetLabel(surrogate_kind_label(kind));
}
BENCHMARK(BM_QuerySurrogate)
    ->Arg(static_cast<int>(SurrogateKind::kXgb))
    ->Arg(static_cast<int>(SurrogateKind::kLgb))
    ->Arg(static_cast<int>(SurrogateKind::kRf))
    ->Arg(static_cast<int>(SurrogateKind::kEpsSvr));

void BM_BenchmarkEndToEndQuery(benchmark::State& state) {
  AccelNASBench bench;
  bench.set_accuracy_surrogate(fitted(SurrogateKind::kXgb));
  Rng rng(6);
  for (auto _ : state) {
    // Full zero-cost evaluation path: sample -> encode -> predict.
    benchmark::DoNotOptimize(bench.query_accuracy(MnasSpace::instance().sample(rng)));
  }
}
BENCHMARK(BM_BenchmarkEndToEndQuery);

// Overhead of the observability layer on the hot query path. The query
// counters are armed by default; the acceptance budget is < 2% between
// these two variants (compare their per-iteration times in the output).
// range(0) == 1 runs with metrics armed, == 0 with the registry disarmed.
void BM_QueryObsOverhead(benchmark::State& state) {
  AccelNASBench bench;
  bench.set_accuracy_surrogate(fitted(SurrogateKind::kXgb));
  Rng rng(8);
  const bool armed = state.range(0) != 0;
  obs::set_metrics_enabled(armed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.query_accuracy(MnasSpace::instance().sample(rng)));
  }
  obs::set_metrics_enabled(true);
  state.SetLabel(armed ? "obs_enabled" : "obs_disabled");
}
BENCHMARK(BM_QueryObsOverhead)->Arg(1)->Arg(0);

// SIMD vs scalar batched descent (DESIGN.md "SIMD descent"): one fitted
// hist-gbdt (masked-eligible by construction: max_leaves 8) predicts the
// same 4096-row matrix under auto dispatch — the masked SIMD engine on
// capable hosts — and under a pinned scalar target, where auto dispatch
// falls back to the interleaved walk. items_per_second is rows/sec;
// compare the two labels for the SIMD speedup on this host. The pair
// also populates the anb.query.simd.{rows,dispatch_target} metrics that
// main() exports below for the CI artifact.
void BM_PredictBatchDescent(benchmark::State& state) {
  const auto model = fitted(SurrogateKind::kLgb);
  constexpr std::size_t kRows = 4096;
  const auto d = static_cast<std::size_t>(MnasSpace::instance().feature_dim());
  Rng rng(9);
  std::vector<double> rows;
  rows.reserve(kRows * d);
  for (std::size_t i = 0; i < kRows; ++i) {
    const auto x = MnasSpace::instance().features(MnasSpace::instance().sample(rng));
    rows.insert(rows.end(), x.begin(), x.end());
  }
  std::vector<double> out(kRows);
  const bool simd_on = state.range(0) != 0;
  std::optional<simd::ScopedTarget> pin;
  if (!simd_on) pin.emplace(simd::Target::kScalar);
  for (auto _ : state) {
    model->predict_batch(rows, d, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
  state.SetLabel(simd_on ? "simd_auto" : "scalar_pinned");
}
BENCHMARK(BM_PredictBatchDescent)->Arg(1)->Arg(0);

// Contrast: the cost this zero-cost path replaces (simulated training run).
void BM_SimulatedTrainingEvaluation(benchmark::State& state) {
  const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
  Rng rng(7);
  const TrainingScheme p = canonical_p_star();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim->train(MnasSpace::instance().sample(rng), p, 0));
  }
}
BENCHMARK(BM_SimulatedTrainingEvaluation);

}  // namespace

// Custom main instead of benchmark_main: after the run, export the obs
// registry as a metrics CSV (anb.query.simd.{rows,dispatch_target} from
// the batched-descent pair above, plus the query counters) so the CI
// tier-1 job can upload it with the other bench observability artifacts.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  obs::write_metrics_csv(
      anb::bench::results_path("micro_query_latency_metrics.csv"));
  return 0;
}
