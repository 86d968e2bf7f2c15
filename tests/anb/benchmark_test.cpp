#include "anb/anb/benchmark.hpp"

#include <gtest/gtest.h>

#include <set>

#include <cstdio>

#include "anb/anb/pipeline.hpp"
#include "anb/anb/tuning.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/obs/registry.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"
#include "scratch_path.hpp"

namespace anb {
namespace {

Dataset tiny_arch_dataset(std::uint64_t seed, double scale = 1.0) {
  Dataset ds(static_cast<std::size_t>(MnasSpace::instance().feature_dim()));
  Rng rng(seed);
  for (int i = 0; i < 150; ++i) {
    const Arch a = MnasSpace::instance().sample(rng);
    const auto f = MnasSpace::instance().features(a);
    double y = 0.0;
    for (double v : f) y += v;
    ds.add(f, scale * y + rng.normal(0.0, 0.01));
  }
  return ds;
}

std::unique_ptr<Surrogate> tiny_model(std::uint64_t seed, double scale = 1.0) {
  auto model = make_default_surrogate(SurrogateKind::kLgb);
  Rng rng(seed);
  Dataset data = tiny_arch_dataset(seed, scale);
  model->fit(data, rng);
  return model;
}

TEST(BenchmarkNamingTest, MetricAndDatasetNames) {
  EXPECT_STREQ(perf_metric_name(PerfMetric::kThroughput), "Thr");
  EXPECT_STREQ(perf_metric_name(PerfMetric::kLatency), "Lat");
  EXPECT_EQ(perf_metric_from_name("Thr"), PerfMetric::kThroughput);
  EXPECT_THROW(perf_metric_from_name("Watts"), Error);
  EXPECT_EQ(dataset_name(MetricKey{DeviceKind::kZcu102, PerfMetric::kThroughput}),
            "ANB-ZCU-Thr");
  EXPECT_EQ(dataset_name(MetricKey{DeviceKind::kTpuV3, PerfMetric::kThroughput}),
            "ANB-TPUv3-Thr");
  EXPECT_EQ(dataset_name(MetricKey{DeviceKind::kVck190, PerfMetric::kLatency}),
            "ANB-VCK-Lat");
}

TEST(AccelNASBenchTest, QueriesRouteToSurrogates) {
  AccelNASBench bench;
  EXPECT_FALSE(bench.has_accuracy());
  bench.set_accuracy_surrogate(tiny_model(1));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kA100, PerfMetric::kThroughput},
                           tiny_model(2, 100.0));
  EXPECT_TRUE(bench.has_accuracy());
  EXPECT_TRUE(bench.has_perf(MetricKey{DeviceKind::kA100, PerfMetric::kThroughput}));
  EXPECT_FALSE(bench.has_perf(MetricKey{DeviceKind::kRtx3090, PerfMetric::kThroughput}));

  Rng rng(3);
  const Arch a = MnasSpace::instance().sample(rng);
  const double acc = bench.query_accuracy(a);
  const double thr = bench.query_perf(a, MetricKey{DeviceKind::kA100, PerfMetric::kThroughput});
  EXPECT_TRUE(std::isfinite(acc));
  EXPECT_GT(thr, acc);  // scaled targets
}

TEST(AccelNASBenchTest, MissingSurrogateThrows) {
  AccelNASBench bench;
  Rng rng(4);
  const Arch a = MnasSpace::instance().sample(rng);
  EXPECT_THROW(bench.query_accuracy(a), Error);
  EXPECT_THROW(bench.query_perf(a, MetricKey{DeviceKind::kA100, PerfMetric::kThroughput}),
               Error);
  EXPECT_THROW(bench.set_accuracy_surrogate(nullptr), Error);
}

TEST(AccelNASBenchTest, ForeignSpaceQueriesThrowAndCountNothing) {
  // A MnasNet-backed benchmark must refuse an FBNet genotype on every
  // query path, before any cache lookup or counter moves — including a
  // batch whose foreign row comes last, after rows that would hit.
  const MetricKey key{DeviceKind::kA100, PerfMetric::kThroughput};
  AccelNASBench bench;
  bench.set_accuracy_surrogate(tiny_model(40));
  bench.set_perf_surrogate(key, tiny_model(41, 100.0));
  Rng rng(42);
  const Arch mnas = MnasSpace::instance().sample(rng);
  const Arch fbnet = FbnetSpace::instance().sample(rng);
  bench.query_accuracy(mnas);
  bench.query_perf(mnas, key);

  const obs::Counter& queries = obs::counter("anb.query.count");
  const auto expect_refused = [&](const auto& call) {
    const QueryCacheStats before = bench.cache_stats();
    const std::uint64_t count_before = queries.value();
    EXPECT_THROW(call(), Error);
    EXPECT_EQ(bench.cache_stats().hits, before.hits);
    EXPECT_EQ(bench.cache_stats().misses, before.misses);
    EXPECT_EQ(queries.value(), count_before);
  };
  const std::vector<Arch> foreign_last = {mnas, mnas, fbnet};
  expect_refused([&] { return bench.query_accuracy(fbnet); });
  expect_refused([&] { return bench.query_perf(fbnet, key); });
  expect_refused([&] { return bench.query_accuracy_batch({&fbnet, 1}); });
  expect_refused([&] { return bench.query_perf_batch({&fbnet, 1}, key); });
  expect_refused([&] { return bench.query_accuracy_batch(foreign_last); });
  expect_refused([&] { return bench.query_perf_batch(foreign_last, key); });
}

TEST(AccelNASBenchTest, LatencyOnlyOnFpgas) {
  AccelNASBench bench;
  EXPECT_THROW(bench.set_perf_surrogate(MetricKey{DeviceKind::kA100, PerfMetric::kLatency},
                                        tiny_model(5)),
               Error);
  EXPECT_NO_THROW(bench.set_perf_surrogate(MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency},
                                           tiny_model(6)));
}

TEST(AccelNASBenchTest, PerfTargetsEnumerates) {
  AccelNASBench bench;
  bench.set_perf_surrogate(MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency},
                           tiny_model(7));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kTpuV2, PerfMetric::kThroughput},
                           tiny_model(8));
  const auto targets = bench.perf_targets();
  EXPECT_EQ(targets.size(), 2u);
}

TEST(AccelNASBenchTest, SaveLoadRoundTrip) {
  AccelNASBench bench;
  bench.set_accuracy_surrogate(tiny_model(9));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kVck190, PerfMetric::kThroughput},
                           tiny_model(10, 1000.0));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kVck190, PerfMetric::kLatency},
                           tiny_model(11, 3.0));

  const std::string path = scratch_path("anb_bench_test.json");
  bench.save(path);
  const AccelNASBench loaded = AccelNASBench::load(path);
  std::remove(path.c_str());

  Rng rng(12);
  for (int i = 0; i < 20; ++i) {
    const Arch a = MnasSpace::instance().sample(rng);
    EXPECT_DOUBLE_EQ(loaded.query_accuracy(a), bench.query_accuracy(a));
    EXPECT_DOUBLE_EQ(
        loaded.query_perf(a, MetricKey{DeviceKind::kVck190, PerfMetric::kThroughput}),
        bench.query_perf(a, MetricKey{DeviceKind::kVck190, PerfMetric::kThroughput}));
    EXPECT_DOUBLE_EQ(
        loaded.query_perf(a, MetricKey{DeviceKind::kVck190, PerfMetric::kLatency}),
        bench.query_perf(a, MetricKey{DeviceKind::kVck190, PerfMetric::kLatency}));
  }
}

TEST(AccelNASBenchTest, NoisyQueriesNeedEnsemble) {
  AccelNASBench plain;
  plain.set_accuracy_surrogate(tiny_model(20));
  Rng rng(21);
  const Arch a = MnasSpace::instance().sample(rng);
  EXPECT_FALSE(plain.has_noisy_accuracy());
  EXPECT_THROW(plain.query_accuracy_noisy(a, rng), Error);
  EXPECT_THROW(plain.query_accuracy_dist(a), Error);
}

TEST(AccelNASBenchTest, EnsemblePipelineEnablesNoisyQueries) {
  PipelineOptions options;
  options.n_archs = 300;
  options.collect_perf = false;
  options.ensemble_accuracy = true;
  options.ensemble_size = 3;
  const PipelineResult result = construct_benchmark(options);
  EXPECT_TRUE(result.bench.has_noisy_accuracy());
  Rng rng(22);
  const Arch a = MnasSpace::instance().sample(rng);
  const auto [mean, std] = result.bench.query_accuracy_dist(a);
  EXPECT_DOUBLE_EQ(mean, result.bench.query_accuracy(a));
  EXPECT_GE(std, 0.0);
  // Draws vary (with overwhelming probability) and stay near the mean.
  const double d1 = result.bench.query_accuracy_noisy(a, rng);
  const double d2 = result.bench.query_accuracy_noisy(a, rng);
  EXPECT_NEAR(d1, mean, 6.0 * std + 1e-9);
  if (std > 1e-9) {
    EXPECT_NE(d1, d2);
  }
  // Noisy mode survives save/load (ensemble serializes).
  const std::string path = scratch_path("anb_noisy.json");
  result.bench.save(path);
  const AccelNASBench loaded = AccelNASBench::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.has_noisy_accuracy());
}

TEST(AccelNASBenchTest, FromJsonRejectsBadFormat) {
  Json j = Json::object();
  j["format"] = "not-a-benchmark";
  j["perf"] = Json::object();
  EXPECT_THROW(AccelNASBench::from_json(j), Error);
}

TEST(BenchmarkNamingTest, ParsersRejectNearMissNames) {
  // Exact-match contract: no case folding, no trimming, no prefixes.
  EXPECT_THROW(perf_metric_from_name(""), Error);
  EXPECT_THROW(perf_metric_from_name("thr"), Error);
  EXPECT_THROW(perf_metric_from_name("Thr "), Error);
  EXPECT_THROW(perf_metric_from_name(" Thr"), Error);
  EXPECT_THROW(perf_metric_from_name("Throughput"), Error);
  EXPECT_THROW(perf_metric_from_name("Enr2"), Error);
  EXPECT_EQ(perf_metric_from_name(perf_metric_name(PerfMetric::kEnergy)),
            PerfMetric::kEnergy);

  EXPECT_THROW(device_kind_from_name(""), Error);
  EXPECT_THROW(device_kind_from_name("A100"), Error);  // canonical is "a100"
  EXPECT_THROW(device_kind_from_name("a100 "), Error);
  EXPECT_THROW(device_kind_from_name("tpuv4"), Error);
  // Round trip through the canonical names still works for all devices.
  for (const auto& device : device_catalog())
    EXPECT_EQ(device_kind_from_name(device_kind_name(device.kind())),
              device.kind());
}

TEST(AccelNASBenchTest, InjectedShortWriteThrowsAndNeverLoads) {
  AccelNASBench bench;
  bench.set_accuracy_surrogate(tiny_model(30));
  const std::string path = scratch_path("anb_short_write.json");

  {
    fault::ScopedFault guard(kBenchmarkSaveFaultSite,
                             fault::Policy::one_shot());
    EXPECT_THROW(bench.save(path), Error);
  }
  // The truncated artifact on disk must never parse as a valid benchmark.
  EXPECT_THROW(AccelNASBench::load(path), Error);
  // A later fault-free save repairs the file in place.
  bench.save(path);
  EXPECT_TRUE(AccelNASBench::load(path).has_accuracy());
  std::remove(path.c_str());
}

TEST(AccelNASBenchTest, InjectedShortReadThrowsWithoutCorruptingFile) {
  AccelNASBench bench;
  bench.set_accuracy_surrogate(tiny_model(31));
  const std::string path = scratch_path("anb_short_read.json");
  bench.save(path);

  {
    fault::ScopedFault guard(kBenchmarkLoadFaultSite, fault::Policy::always());
    EXPECT_THROW(AccelNASBench::load(path), Error);
  }
  // The fault was in the (simulated) read, not the file: a clean load works.
  EXPECT_TRUE(AccelNASBench::load(path).has_accuracy());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anb
