#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "anb/anb/collection.hpp"
#include "anb/anb/pipeline.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"
#include "anb/util/parallel.hpp"

namespace anb {
namespace {

/// Fault-state and thread-count hygiene: every test leaves the process the
/// way it found it, so the rest of the binary is unaffected.
class CollectionFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::disarm_all();
    set_default_num_threads(0);
  }

  CollectedData collect(int n, const RetryPolicy& retry = RetryPolicy{},
                        std::uint64_t seed = 7) const {
    const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
    DataCollector collector(*sim, device_catalog());
    CollectionConfig config;
    config.n_archs = n;
    config.seed = seed;
    config.scheme = canonical_p_star();
    config.retry = retry;
    return collector.collect(config);
  }

  /// 6 throughput + 2 FPGA latency datasets at the default config.
  static constexpr std::uint64_t kDatasets = 8;
};

TEST_F(CollectionFaultTest, CleanRunReportIsExactlyTwoReadingsPerSample) {
  const CollectedData data = collect(20);
  EXPECT_TRUE(data.report.clean());
  // The measure-repeat-reject protocol takes exactly two (agreeing)
  // readings per architecture per dataset on a fault-free fleet.
  EXPECT_EQ(data.report.attempts, 2u * 20u * kDatasets);
  EXPECT_EQ(data.report.retries, 0u);
  EXPECT_EQ(data.report.transient_errors, 0u);
  EXPECT_EQ(data.report.timeouts, 0u);
  EXPECT_EQ(data.report.outlier_resolves, 0u);
  EXPECT_EQ(data.report.rejected_outliers, 0u);
  EXPECT_TRUE(data.report.failed_datasets.empty());
  EXPECT_TRUE(data.report.quarantined.empty());
}

TEST_F(CollectionFaultTest, RetryRecoversExactCleanValues) {
  // Acceptance criterion: with a 20% transient-failure rate armed, the
  // collected dataset is bit-identical to the fault-free run for every
  // architecture that survives (here: all of them — with 4 attempts per
  // reading, a 0.2 failure rate virtually never exhausts the budget).
  const CollectedData clean = collect(30);
  ASSERT_TRUE(clean.report.clean());

  fault::ScopedFault guard(kMeasureTransientFaultSite,
                           fault::Policy::bernoulli(0.2, 1001));
  const CollectedData faulty = collect(30);

  EXPECT_GT(faulty.report.transient_errors, 0u);
  EXPECT_EQ(faulty.report.retries, faulty.report.transient_errors);
  EXPECT_EQ(faulty.report.attempts,
            2u * 30u * kDatasets + faulty.report.retries);
  EXPECT_TRUE(faulty.report.quarantined.empty());
  EXPECT_TRUE(faulty.report.failed_datasets.empty());

  ASSERT_EQ(faulty.archs.size(), clean.archs.size());
  for (std::size_t i = 0; i < clean.archs.size(); ++i)
    EXPECT_TRUE(clean.archs[i] == faulty.archs[i]) << i;
  EXPECT_EQ(clean.accuracy, faulty.accuracy);  // bit-identical doubles
  ASSERT_EQ(clean.perf.size(), faulty.perf.size());
  for (const auto& [name, labels] : clean.perf) {
    ASSERT_TRUE(faulty.perf.count(name)) << name;
    EXPECT_EQ(labels, faulty.perf.at(name)) << name;  // bit-identical
  }
}

TEST_F(CollectionFaultTest, TimeoutsAreRetriedAndCountedSeparately) {
  fault::ScopedFault guard(kMeasureTimeoutFaultSite,
                           fault::Policy::bernoulli(0.15, 55));
  const CollectedData data = collect(25);
  EXPECT_GT(data.report.timeouts, 0u);
  EXPECT_EQ(data.report.transient_errors, 0u);
  EXPECT_EQ(data.report.retries, data.report.timeouts);
  EXPECT_TRUE(data.report.quarantined.empty());
}

TEST_F(CollectionFaultTest, ReportIsThreadCountInvariant) {
  // Acceptance criterion: identical accounting (and identical data) under
  // 1, 2, and hardware-default worker threads, with both failure modes and
  // outliers armed at once.
  const auto run = [&](unsigned threads) {
    set_default_num_threads(threads);
    fault::ScopedFault transient(kMeasureTransientFaultSite,
                                 fault::Policy::bernoulli(0.1, 21));
    fault::ScopedFault timeout(kMeasureTimeoutFaultSite,
                               fault::Policy::bernoulli(0.05, 22));
    fault::ScopedFault outlier(kMeasureOutlierFaultSite,
                               fault::Policy::bernoulli(0.05, 23));
    return collect(24);
  };
  const CollectedData base = run(1);
  EXPECT_FALSE(base.report.clean());
  for (const unsigned threads : {2u, 0u}) {
    const CollectedData other = run(threads);
    EXPECT_EQ(base.report.attempts, other.report.attempts);
    EXPECT_EQ(base.report.retries, other.report.retries);
    EXPECT_EQ(base.report.transient_errors, other.report.transient_errors);
    EXPECT_EQ(base.report.timeouts, other.report.timeouts);
    EXPECT_EQ(base.report.outlier_resolves, other.report.outlier_resolves);
    EXPECT_EQ(base.report.rejected_outliers, other.report.rejected_outliers);
    EXPECT_EQ(base.report.failed_datasets, other.report.failed_datasets);
    ASSERT_EQ(base.report.quarantined.size(), other.report.quarantined.size());
    for (std::size_t i = 0; i < base.report.quarantined.size(); ++i)
      EXPECT_TRUE(base.report.quarantined[i] == other.report.quarantined[i]);
    ASSERT_EQ(base.archs.size(), other.archs.size());
    for (const auto& [name, labels] : base.perf)
      EXPECT_EQ(labels, other.perf.at(name)) << name;
  }
}

TEST_F(CollectionFaultTest, OutliersAreResolvedByMedianToCleanValues) {
  const CollectedData clean = collect(25);
  fault::ScopedFault guard(kMeasureOutlierFaultSite,
                           fault::Policy::bernoulli(0.08, 3003));
  const CollectedData faulty = collect(25);

  // Spikes disagree with the repeat reading, forcing median resolves that
  // reject them; the accepted medians equal the clean readings exactly.
  EXPECT_GT(faulty.report.outlier_resolves, 0u);
  EXPECT_GT(faulty.report.rejected_outliers, 0u);
  EXPECT_TRUE(faulty.report.quarantined.empty());
  ASSERT_EQ(faulty.archs.size(), clean.archs.size());
  for (const auto& [name, labels] : clean.perf)
    EXPECT_EQ(labels, faulty.perf.at(name)) << name;
}

TEST_F(CollectionFaultTest, RetryExhaustionQuarantinesTheArchitecture) {
  // A high failure rate makes some sample fail max_read_attempts times in a
  // row; its architecture must be quarantined, dropped from every vector,
  // and reported. max_quarantine_frac=1 keeps every dataset alive so the
  // quarantine path itself is what is exercised.
  RetryPolicy retry;
  retry.max_read_attempts = 2;
  retry.max_quarantine_frac = 1.0;
  const CollectedData clean = collect(30, retry);  // fault-free baseline
  fault::ScopedFault guard(kMeasureTransientFaultSite,
                           fault::Policy::bernoulli(0.45, 909));
  const CollectedData data = collect(30, retry);

  ASSERT_FALSE(data.report.quarantined.empty());
  EXPECT_LT(data.archs.size(), 30u);
  EXPECT_EQ(data.archs.size() + data.report.quarantined.size(), 30u);
  EXPECT_EQ(data.accuracy.size(), data.archs.size());
  for (const auto& [name, labels] : data.perf)
    EXPECT_EQ(labels.size(), data.archs.size()) << name;

  // Quarantined archs are really gone from the survivors.
  std::set<std::uint64_t> kept;
  for (const auto& a : data.archs) kept.insert(MnasSpace::instance().to_index(a));
  for (const auto& a : data.report.quarantined)
    EXPECT_FALSE(kept.count(MnasSpace::instance().to_index(a)));

  // Survivors keep their fault-free values (same seed => same readings).
  std::size_t ci = 0;
  for (std::size_t i = 0; i < 30u; ++i) {
    const auto idx = MnasSpace::instance().to_index(clean.archs[i]);
    if (kept.count(idx) == 0) continue;
    EXPECT_TRUE(clean.archs[i] == data.archs[ci]);
    for (const auto& [name, labels] : data.perf)
      EXPECT_EQ(clean.perf.at(name)[i], labels[ci]) << name;
    ++ci;
  }
  EXPECT_EQ(ci, data.archs.size());
}

TEST_F(CollectionFaultTest, DatasetExceedingQuarantineBudgetIsDropped) {
  // Certain failure on every attempt: every dataset quarantines everything,
  // exceeds max_quarantine_frac, and is dropped as a whole — without
  // poisoning the architecture list (no per-arch quarantine survives).
  fault::ScopedFault guard(kMeasureTransientFaultSite,
                           fault::Policy::always());
  const CollectedData data = collect(10);
  EXPECT_TRUE(data.perf.empty());
  EXPECT_EQ(data.report.failed_datasets.size(), kDatasets);
  EXPECT_TRUE(data.report.quarantined.empty());
  EXPECT_EQ(data.archs.size(), 10u);  // archs + accuracy stay intact
  EXPECT_EQ(data.accuracy.size(), 10u);
}

TEST_F(CollectionFaultTest, InvalidRetryPolicyThrows) {
  RetryPolicy retry;
  retry.max_read_attempts = 0;
  EXPECT_THROW(collect(5, retry), Error);
  retry = RetryPolicy{};
  retry.outlier_reads = 4;  // must be odd
  EXPECT_THROW(collect(5, retry), Error);
  retry = RetryPolicy{};
  retry.outlier_tolerance = 0.0;
  EXPECT_THROW(collect(5, retry), Error);
  retry = RetryPolicy{};
  retry.max_quarantine_frac = 1.5;
  EXPECT_THROW(collect(5, retry), Error);
}

TEST_F(CollectionFaultTest, PipelineSkipsFailedDatasetsGracefully) {
  // End-to-end graceful degradation: with the timeout site always firing,
  // every perf dataset fails collection, yet construct_benchmark still
  // returns a benchmark with the accuracy surrogate fitted and the gaps
  // reported in skipped_datasets.
  fault::ScopedFault guard(kMeasureTimeoutFaultSite, fault::Policy::always());
  PipelineOptions options;
  options.n_archs = 24;
  const PipelineResult result = construct_benchmark(options);

  EXPECT_TRUE(result.bench.has_accuracy());
  EXPECT_TRUE(result.bench.perf_targets().empty());
  EXPECT_EQ(result.skipped_datasets.size(), kDatasets);
  EXPECT_EQ(result.data.report.failed_datasets.size(), kDatasets);
  EXPECT_TRUE(result.test_metrics.count("ANB-Acc"));
  // The skipped list is exactly the failed-dataset list (order may differ).
  std::set<std::string> skipped(result.skipped_datasets.begin(),
                                result.skipped_datasets.end());
  std::set<std::string> failed(result.data.report.failed_datasets.begin(),
                               result.data.report.failed_datasets.end());
  EXPECT_EQ(skipped, failed);
}

TEST_F(CollectionFaultTest, PipelineSurvivesPartialDatasetFailure) {
  // Fail only the throughput readings of one unlucky subset: datasets that
  // stay under the quarantine budget are fitted as usual.
  fault::ScopedFault guard(kMeasureTransientFaultSite,
                           fault::Policy::bernoulli(0.1, 77));
  PipelineOptions options;
  options.n_archs = 24;
  const PipelineResult result = construct_benchmark(options);
  EXPECT_TRUE(result.bench.has_accuracy());
  EXPECT_EQ(result.bench.perf_targets().size(),
            kDatasets - result.skipped_datasets.size());
  EXPECT_FALSE(result.data.report.clean());
}

}  // namespace
}  // namespace anb
