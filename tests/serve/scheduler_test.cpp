// The micro-batch scheduler on its own, without sockets: its flush rule
// (work-conserving, largest bucket first) and the values it delivers,
// each compared bit for bit against a direct query. The cut-point case
// pauses flushing and uses one worker, so it needs no timing.

#include "anb/serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve_test_util.hpp"

namespace anb {
namespace {

using namespace anb::serve;
using namespace anb::serve_test;

const BucketKey kAcc{};
const BucketKey kThr{SpaceId::kMnasNet, /*accuracy=*/false, kA100Thr};

/// What one submission's callback saw: the flush it rode in (the
/// scheduler's batch count at delivery) and its value.
struct Delivery {
  BucketKey bucket;
  std::uint64_t arch = 0;
  std::uint64_t batch = 0;
  double value = 0.0;
  std::string error;
};

class SchedulerTest : public ::testing::Test {
 protected:
  double direct(const BucketKey& bucket, std::uint64_t index) const {
    const Arch arch = MnasSpace::instance().from_index(index);
    return bucket.accuracy ? bench_.query_accuracy(arch)
                           : bench_.query_perf(arch, bucket.key);
  }

  /// Submits one row to `sched`; its callback fills `*out` (stable for
  /// the scheduler's lifetime) and completes the returned future.
  std::future<void> submit(Scheduler& sched, const BucketKey& bucket,
                           std::uint64_t arch, Delivery* out) {
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> future = done->get_future();
    out->bucket = bucket;
    out->arch = arch;
    const Admit admit = sched.submit(
        bucket, {arch},
        [&sched, out, done](std::vector<double> values, std::string error) {
          out->batch = sched.stats().batches;
          out->value = values.at(0);
          out->error = std::move(error);
          done->set_value();
        });
    EXPECT_EQ(admit, Admit::kOk);
    return future;
  }

  void expect_exact(const Delivery& d) const {
    EXPECT_TRUE(d.error.empty()) << d.error;
    EXPECT_EQ(d.value, direct(d.bucket, d.arch)) << d.bucket.name();
  }

  const AccelNASBench bench_ = make_bench(3);
  const std::vector<std::uint64_t> pool_ = distinct_indices(16, 11);
};

TEST_F(SchedulerTest, BacklogCoalescesLargestBucketFirst) {
  SchedulerOptions options;
  options.batch_max = 4;
  options.worker_threads = 1;
  Scheduler sched(bench_, options);
  sched.start();
  sched.pause();

  std::vector<Delivery> log(13);
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < 10; ++i) {
    done.push_back(submit(sched, kAcc, pool_[i], &log[i]));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    done.push_back(submit(sched, kThr, pool_[i], &log[10 + i]));
  }
  EXPECT_EQ(sched.stats().batches, 0u);
  sched.resume();
  for (auto& f : done) f.get();

  // Flush k is the k-th batch; read each one's bucket and size back.
  const std::vector<std::pair<BucketKey, std::size_t>> want = {
      {kAcc, 4}, {kAcc, 4}, {kThr, 3}, {kAcc, 2}};
  std::vector<std::pair<BucketKey, std::size_t>> got(want.size());
  for (const Delivery& d : log) {
    ASSERT_GE(d.batch, 1u);
    ASSERT_LE(d.batch, want.size());
    auto& flush = got[d.batch - 1];
    if (flush.second > 0) {
      EXPECT_EQ(flush.first, d.bucket) << "flush " << d.batch << " mixed";
    }
    flush.first = d.bucket;
    flush.second += 1;
    expect_exact(d);
  }
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].first, want[k].first) << "flush " << k + 1;
    EXPECT_EQ(got[k].second, want[k].second) << "flush " << k + 1;
  }

  sched.stop();
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.rows, 13u);
  EXPECT_EQ(stats.bucket_rows.at(kAcc.name()), 10u);
  EXPECT_EQ(stats.bucket_rows.at(kThr.name()), 3u);
}

TEST_F(SchedulerTest, LoneSubmitsFlushAtOnceAsBatchesOfOne) {
  // One worker and a bucket far below batch_max: no later row will ever
  // arrive to fill it, so a scheduler that held a partial bucket for
  // more rows would leave each future pending. The bound is far above
  // one small query's cost and fails fast instead of hanging.
  constexpr std::size_t kQueries = 8;
  std::vector<Delivery> log(kQueries);  // outlives sched's drain
  SchedulerOptions options;
  options.worker_threads = 1;
  Scheduler sched(bench_, options);
  sched.start();

  for (std::size_t i = 0; i < kQueries; ++i) {
    const BucketKey& bucket = i % 2 == 0 ? kAcc : kThr;
    std::future<void> done = submit(sched, bucket, pool_[i], &log[i]);
    ASSERT_EQ(done.wait_for(std::chrono::seconds(1)),
              std::future_status::ready)
        << "query " << i << " was held back";
    EXPECT_EQ(log[i].batch, i + 1) << "query " << i << " rode a shared batch";
    expect_exact(log[i]);
  }

  sched.stop();
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.batches, kQueries);
  EXPECT_EQ(stats.rows, kQueries);
}

}  // namespace
}  // namespace anb
