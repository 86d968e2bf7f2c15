#include "anb/obs/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"

namespace anb {
namespace {

const obs::MetricValue* find_metric(const std::vector<obs::MetricValue>& snapshot,
                               const std::string& name) {
  for (const obs::MetricValue& m : snapshot)
    if (m.name == name) return &m;
  return nullptr;
}

TEST(ObsRegistryTest, CounterAccumulates) {
  obs::reset_metrics();
  obs::Counter& c = obs::counter("test.registry.basic");
  c.add(3);
  c.increment();
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(c.name(), "test.registry.basic");
}

TEST(ObsRegistryTest, HandlesAreStable) {
  obs::reset_metrics();
  obs::Counter& a = obs::counter("test.registry.stable");
  obs::Counter& b = obs::counter("test.registry.stable");
  EXPECT_EQ(&a, &b);
  a.add(1);
  EXPECT_EQ(b.value(), 1u);
}

TEST(ObsRegistryTest, KindMismatchThrows) {
  obs::counter("test.registry.kind");
  EXPECT_THROW(obs::gauge("test.registry.kind"), Error);
  EXPECT_THROW(obs::histogram("test.registry.kind"), Error);
}

TEST(ObsRegistryTest, GaugeHoldsLastValue) {
  obs::reset_metrics();
  obs::Gauge& g = obs::gauge("test.registry.gauge");
  g.set(2.5);
  g.set(-7.25);
  EXPECT_EQ(g.value(), -7.25);
}

TEST(ObsRegistryTest, HistogramBucketsAndSum) {
  obs::reset_metrics();
  obs::Histogram& h = obs::histogram("test.registry.hist");
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1 (bit_width 1)
  h.observe(2);   // bucket 2
  h.observe(3);   // bucket 2
  h.observe(1'000'000);  // large values clamp to the last bucket band
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1'000'006u);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), obs::kHistogramBuckets);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[obs::kHistogramBuckets - 1], 1u);
}

TEST(ObsRegistryTest, SnapshotIsSortedByName) {
  obs::reset_metrics();
  obs::counter("test.snapshot.zz").add(1);
  obs::counter("test.snapshot.aa").add(2);
  const auto snapshot = obs::snapshot_metrics();
  for (std::size_t i = 1; i < snapshot.size(); ++i)
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);
  const obs::MetricValue* aa = find_metric(snapshot, "test.snapshot.aa");
  ASSERT_NE(aa, nullptr);
  EXPECT_EQ(aa->kind, obs::MetricKind::kCounter);
  EXPECT_EQ(aa->value, 2u);
}

TEST(ObsRegistryTest, ResetZeroesEverything) {
  obs::Counter& c = obs::counter("test.registry.reset");
  obs::Gauge& g = obs::gauge("test.registry.reset_gauge");
  c.add(9);
  g.set(1.0);
  obs::reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsRegistryTest, DisabledCountersDoNotAdvance) {
  obs::reset_metrics();
  obs::Counter& c = obs::counter("test.registry.disabled");
  obs::set_metrics_enabled(false);
  c.add(5);
  obs::set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

// The determinism contract: counter totals are sums of uint64 increments,
// so they are bit-identical at any thread count — the shards of the
// caller and of parallel_for's pool workers (which live on between calls)
// merge by addition, and retired threads' shards fold into the same totals.
TEST(ObsRegistryTest, CountersAreThreadCountInvariant) {
  obs::Counter& c = obs::counter("test.registry.invariant");
  obs::Histogram& h = obs::histogram("test.registry.invariant_hist");
  constexpr std::size_t kItems = 500;

  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> sums;
  for (unsigned threads : {1u, 2u, 0u}) {  // 0 = hardware concurrency
    obs::reset_metrics();
    parallel_for(
        kItems,
        [&](std::size_t i) {
          c.add(i % 7 + 1);
          h.observe(i);
        },
        threads);
    counts.push_back(c.value());
    sums.push_back(h.sum());
    EXPECT_EQ(h.count(), kItems);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], sums[2]);
}

TEST(ObsRegistryTest, CsvListsCountersAndHistograms) {
  obs::reset_metrics();
  obs::counter("test.csv.counter").add(4);
  obs::histogram("test.csv.hist").observe(3);
  const std::string csv = obs::metrics_csv_string();
  EXPECT_NE(csv.find("metric,kind,value"), std::string::npos);
  EXPECT_NE(csv.find("test.csv.counter,counter,4"), std::string::npos);
  EXPECT_NE(csv.find("test.csv.hist.count,histogram,1"), std::string::npos);
  EXPECT_NE(csv.find("test.csv.hist.sum,histogram,3"), std::string::npos);
}

}  // namespace
}  // namespace anb
