// The micro-batch scheduler on its own, without sockets: its flush rule
// (work-conserving, largest bucket first), who runs a deferred backlog
// (flush_or_wake: the caller when idle and small, else a worker) and the
// values it delivers, each compared bit for bit against a direct query.
// The cut-point case pauses flushing and uses one worker, so it needs no
// timing.

#include "anb/serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anb/obs/registry.hpp"
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
  std::thread::id thread;  ///< where the callback ran
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
                           std::uint64_t arch, Delivery* out,
                           Wake wake = Wake::kNow) {
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
          out->thread = std::this_thread::get_id();
          done->set_value();
        },
        wake);
    EXPECT_EQ(admit, Admit::kOk);
    return future;
  }

  /// Submits `n` deferred rows of `bucket`, one per submission.
  std::vector<std::future<void>> submit_deferred(Scheduler& sched,
                                                 const BucketKey& bucket,
                                                 std::size_t n,
                                                 std::vector<Delivery>& log) {
    log.assign(n, Delivery{});
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < n; ++i) {
      done.push_back(submit(sched, bucket, pool_[i], &log[i], Wake::kDeferred));
    }
    return done;
  }

  /// Waits for every future, failing fast instead of hanging, and checks
  /// that a worker, not this thread, answered each row exactly.
  void expect_worker_answers(std::vector<std::future<void>>& done,
                             const std::vector<Delivery>& log) const {
    for (std::size_t i = 0; i < done.size(); ++i) {
      ASSERT_EQ(done[i].wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "row " << i << " was never flushed";
      EXPECT_NE(log[i].thread, std::this_thread::get_id()) << "row " << i;
      expect_exact(log[i]);
    }
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

TEST_F(SchedulerTest, IdleBacklogWithinTheBoundFlushesOnTheCaller) {
  // A worker that reaches its first wait after the rows are queued takes
  // them without being woken, so an attempt can lose that race; each
  // later one finds the worker asleep. Deferred rows wake nobody, and
  // flush_or_wake() runs them here before it returns.
  SchedulerOptions options;
  options.worker_threads = 2;
  Scheduler sched(bench_, options);
  sched.start();
  obs::Counter& inline_batches = obs::counter("anb.serve.inline.batches");
  obs::Counter& inline_rows = obs::counter("anb.serve.inline.rows");

  std::vector<Delivery> log;
  bool ran_inline = false;
  for (int attempt = 0; attempt < 100 && !ran_inline; ++attempt) {
    const SchedulerStats before = sched.stats();
    const std::uint64_t batches0 = inline_batches.value();
    const std::uint64_t rows0 = inline_rows.value();
    std::vector<std::future<void>> done =
        submit_deferred(sched, kAcc, kInlineMaxRows, log);
    ran_inline = sched.flush_or_wake();
    if (!ran_inline) {
      expect_worker_answers(done, log);
      continue;
    }
    for (std::size_t i = 0; i < done.size(); ++i) {
      ASSERT_EQ(done[i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "row " << i << " outlived the inline flush";
      EXPECT_EQ(log[i].thread, std::this_thread::get_id()) << "row " << i;
      EXPECT_EQ(log[i].batch, before.batches + 1) << "row " << i;
      expect_exact(log[i]);
    }
    // Counted like a worker's flush, and once more as inline.
    const SchedulerStats after = sched.stats();
    EXPECT_EQ(after.batches, before.batches + 1);
    EXPECT_EQ(after.rows, before.rows + kInlineMaxRows);
    EXPECT_EQ(after.bucket_rows.at(kAcc.name()), after.rows);
    EXPECT_EQ(inline_batches.value(), batches0 + 1);
    EXPECT_EQ(inline_rows.value(), rows0 + kInlineMaxRows);
  }
  EXPECT_TRUE(ran_inline) << "no attempt found the workers idle";
}

TEST_F(SchedulerTest, BacklogAboveTheBoundGoesToAWorker) {
  SchedulerOptions options;
  options.worker_threads = 1;
  Scheduler sched(bench_, options);
  sched.start();

  std::vector<Delivery> log;
  std::vector<std::future<void>> done =
      submit_deferred(sched, kAcc, kInlineMaxRows + 1, log);
  EXPECT_FALSE(sched.flush_or_wake());
  expect_worker_answers(done, log);
}

TEST_F(SchedulerTest, PausedBacklogWaitsForResume) {
  SchedulerOptions options;
  options.worker_threads = 1;
  Scheduler sched(bench_, options);
  sched.start();
  sched.pause();

  std::vector<Delivery> log;
  std::vector<std::future<void>> done = submit_deferred(sched, kAcc, 1, log);
  EXPECT_FALSE(sched.flush_or_wake());
  EXPECT_EQ(sched.stats().batches, 0u);
  sched.resume();
  expect_worker_answers(done, log);
}

TEST_F(SchedulerTest, BacklogBehindARunningFlushGoesToAnIdleWorker) {
  // Worker A holds a flush open inside its callback; the deferred row
  // must reach worker B while A is still busy, not this thread.
  SchedulerOptions options;
  options.worker_threads = 2;
  Scheduler sched(bench_, options);
  sched.start();

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_EQ(sched.submit(kThr, {pool_[0]},
                         [&entered, released](std::vector<double>,
                                              std::string) {
                           entered.set_value();
                           released.wait();
                         }),
            Admit::kOk);
  entered.get_future().wait();

  std::vector<Delivery> log;
  std::vector<std::future<void>> done = submit_deferred(sched, kAcc, 1, log);
  const bool ran_inline = sched.flush_or_wake();
  const std::future_status answered =
      done[0].wait_for(std::chrono::seconds(30));
  release.set_value();  // before any assertion can leave A blocked
  EXPECT_FALSE(ran_inline);
  ASSERT_EQ(answered, std::future_status::ready)
      << "the idle worker never took the row";
  EXPECT_NE(log[0].thread, std::this_thread::get_id());
  expect_exact(log[0]);
}

}  // namespace
}  // namespace anb
