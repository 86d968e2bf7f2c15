#include "anb/anb/collection.hpp"

#include <gtest/gtest.h>

#include <set>

#include "anb/anb/pipeline.hpp"
#include "anb/util/error.hpp"

namespace anb {
namespace {

class CollectionTest : public ::testing::Test {
 protected:
  CollectedData collect(int n, bool perf = true, std::uint64_t seed = 7) {
    const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
    DataCollector collector(*sim, device_catalog());
    CollectionConfig config;
    config.n_archs = n;
    config.seed = seed;
    config.scheme = canonical_p_star();
    config.collect_perf = perf;
    return collector.collect(config);
  }
};

TEST_F(CollectionTest, CollectsRequestedCount) {
  const CollectedData data = collect(50);
  EXPECT_EQ(data.archs.size(), 50u);
  EXPECT_EQ(data.accuracy.size(), 50u);
  EXPECT_GT(data.total_gpu_hours, 0.0);
}

TEST_F(CollectionTest, ArchitecturesAreUnique) {
  const CollectedData data = collect(200, /*perf=*/false);
  std::set<std::uint64_t> unique;
  for (const auto& a : data.archs) unique.insert(MnasSpace::instance().to_index(a));
  EXPECT_EQ(unique.size(), data.archs.size());
}

TEST_F(CollectionTest, PerfDatasetsCoverAllDeviceMetrics) {
  const CollectedData data = collect(30);
  // 6 throughput datasets + 2 FPGA latency datasets.
  EXPECT_EQ(data.perf.size(), 8u);
  EXPECT_TRUE(data.perf.count("ANB-ZCU-Lat"));
  EXPECT_TRUE(data.perf.count("ANB-VCK-Lat"));
  EXPECT_TRUE(data.perf.count("ANB-A100-Thr"));
  EXPECT_FALSE(data.perf.count("ANB-A100-Lat"));
  for (const auto& [name, labels] : data.perf) {
    EXPECT_EQ(labels.size(), data.archs.size()) << name;
    for (double v : labels) EXPECT_GT(v, 0.0) << name;
  }
}

TEST_F(CollectionTest, SkippingPerfIsSupported) {
  const CollectedData data = collect(20, /*perf=*/false);
  EXPECT_TRUE(data.perf.empty());
  EXPECT_EQ(data.accuracy.size(), 20u);
}

TEST_F(CollectionTest, DeterministicPerSeed) {
  const CollectedData a = collect(25, true, 99);
  const CollectedData b = collect(25, true, 99);
  const CollectedData c = collect(25, true, 100);
  EXPECT_EQ(a.archs.front(), b.archs.front());
  EXPECT_DOUBLE_EQ(a.accuracy.front(), b.accuracy.front());
  EXPECT_DOUBLE_EQ(a.perf.at("ANB-RTX-Thr").front(),
                   b.perf.at("ANB-RTX-Thr").front());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.archs.size(); ++i)
    any_diff |= !(a.archs[i] == c.archs[i]);
  EXPECT_TRUE(any_diff);
}

TEST_F(CollectionTest, AccuraciesPlausible) {
  const CollectedData data = collect(60, /*perf=*/false);
  for (double acc : data.accuracy) {
    EXPECT_GT(acc, 0.3);
    EXPECT_LT(acc, 0.9);
  }
}

TEST_F(CollectionTest, DatasetConstruction) {
  const CollectedData data = collect(40);
  const Dataset acc = data.accuracy_dataset();
  EXPECT_EQ(acc.size(), 40u);
  EXPECT_EQ(acc.num_features(),
            static_cast<std::size_t>(MnasSpace::instance().feature_dim()));
  const Dataset lat = data.perf_dataset(MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency});
  EXPECT_EQ(lat.size(), 40u);
  EXPECT_THROW(data.perf_dataset(MetricKey{DeviceKind::kA100, PerfMetric::kLatency}),
               Error);
}

TEST_F(CollectionTest, CostScalesWithCount) {
  const double h10 = collect(10, false).total_gpu_hours;
  const double h40 = collect(40, false).total_gpu_hours;
  EXPECT_GT(h40, 2.5 * h10);
}

TEST_F(CollectionTest, InvalidConfigThrows) {
  const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
  DataCollector collector(*sim, device_catalog());
  CollectionConfig config;
  config.n_archs = 0;
  config.scheme = canonical_p_star();
  EXPECT_THROW(collector.collect(config), Error);
  config.n_archs = 5;
  config.scheme.resize_finish_epoch = config.scheme.total_epochs + 1;
  EXPECT_THROW(collector.collect(config), Error);
}

}  // namespace
}  // namespace anb
