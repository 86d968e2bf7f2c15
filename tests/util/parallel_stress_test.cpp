// Contention-heavy tests for parallel_for and the worker pool behind it,
// written to give TSan something to bite on: many short tasks, shared
// atomics, exceptions racing with normal completion, nested invocations
// sharing the pool's workers, and bodies that call parallel_for under a
// lock. Run them under -DANB_SANITIZE=thread to audit the implementation
// (see README.md).

#include "anb/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "anb/obs/registry.hpp"
#include "anb/util/error.hpp"
#include "anb/util/mutex.hpp"

namespace anb {
namespace {

/// Helper threads the pool holds, as its gauge reports after the last
/// multi-threaded call.
unsigned pool_threads() {
  return static_cast<unsigned>(
      obs::gauge("anb.parallel.pool_threads").value());
}

/// A one-shot barrier for `count` threads. It gives up after a generous
/// timeout, so a pool that never sends its helpers fails the test instead
/// of hanging the run.
class Rendezvous {
 public:
  explicit Rendezvous(unsigned count) : count_(count) {}

  /// False when the other threads did not all arrive in time.
  bool arrive_and_wait() {
    MutexLock lock(mu_);
    if (++arrived_ == count_) all_arrived_.notify_all();
    return all_arrived_.wait_for(
        mu_, std::chrono::seconds(60),
        [this]() ANB_REQUIRES(mu_) { return arrived_ >= count_; });
  }

 private:
  Mutex mu_;
  CondVar all_arrived_;
  const unsigned count_;
  unsigned arrived_ ANB_GUARDED_BY(mu_) = 0;
};

// Oversubscribe relative to the work-stealing counter: lots of tiny
// iterations maximizes contention on the shared index.
TEST(ParallelStressTest, ManyTinyIterationsUnderContention) {
  const std::size_t n = 200000;
  std::atomic<std::size_t> sum{0};
  parallel_for(
      n, [&](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); },
      /*num_threads=*/8);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// Each iteration writes a distinct slot — TSan verifies the claim in the
// header that distinct-i bodies need no synchronization of their own, and
// that helpers leaving the call provide the final happens-before edge to
// the caller.
TEST(ParallelStressTest, DisjointWritesNeedNoLocking) {
  const std::size_t n = 50000;
  std::vector<std::size_t> out(n, 0);
  parallel_for(n, [&](std::size_t i) { out[i] = i * 3; }, /*num_threads=*/8);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * 3);
}

TEST(ParallelStressTest, RepeatedInvocationsReuseNothingStale) {
  // Every call reuses the same pool workers; hammer it to let TSan catch
  // any state of one call leaking into the next.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    parallel_for(100, [&](std::size_t) { count.fetch_add(1); },
                 /*num_threads=*/4);
    ASSERT_EQ(count.load(), 100);
  }
}

TEST(ParallelStressTest, FirstOfManyConcurrentExceptionsWins) {
  // Several workers throw nearly simultaneously; exactly one Error must
  // surface and the call must still wait for every helper to leave.
  const std::size_t n = 10000;
  std::atomic<int> throwers{0};
  try {
    parallel_for(
        n,
        [&](std::size_t i) {
          if (i % 1000 == 999) {
            throwers.fetch_add(1);
            throw Error("worker " + std::to_string(i) + " failed");
          }
        },
        /*num_threads=*/8);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("failed"), std::string::npos);
  }
  EXPECT_GE(throwers.load(), 1);
}

TEST(ParallelStressTest, ExceptionStopsRemainingWorkEarly) {
  // After a failure the remaining iterations are abandoned; completed +
  // skipped must still account for every index exactly once (no double
  // execution while draining).
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  try {
    parallel_for(
        n,
        [&](std::size_t i) {
          hits[i].fetch_add(1);
          if (i == 10) throw Error("early failure");
        },
        /*num_threads=*/4);
    FAIL() << "expected Error";
  } catch (const Error&) {
  }
  std::size_t executed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int h = hits[i].load();
    ASSERT_LE(h, 1) << "index " << i << " ran twice";
    executed += static_cast<std::size_t>(h);
  }
  EXPECT_GE(executed, 1u);
  EXPECT_LE(executed, n);
}

// Nested parallel_for is SUPPORTED: a nested call enqueues into the same
// pool and takes only idle workers, running on its caller alone when all
// are busy, so nesting neither deadlocks nor multiplies threads.
TEST(ParallelStressTest, NestedParallelForIsSupported) {
  const std::size_t outer = 8;
  const std::size_t inner = 500;
  std::vector<std::atomic<std::size_t>> totals(outer);
  parallel_for(
      outer,
      [&](std::size_t o) {
        parallel_for(
            inner,
            [&](std::size_t i) {
              totals[o].fetch_add(i, std::memory_order_relaxed);
            },
            /*num_threads=*/2);
      },
      /*num_threads=*/4);
  for (std::size_t o = 0; o < outer; ++o) {
    EXPECT_EQ(totals[o].load(), inner * (inner - 1) / 2);
  }
}

TEST(ParallelStressTest, ExceptionInsideNestedCallPropagatesToRoot) {
  EXPECT_THROW(
      parallel_for(4,
                   [](std::size_t o) {
                     parallel_for(100, [o](std::size_t i) {
                       if (o == 2 && i == 50) throw Error("nested boom");
                     });
                   }),
      Error);
}

TEST(ParallelStressTest, ZeroIterationsSpawnNoThreads) {
  // Must return without touching the body or creating workers.
  parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; },
               /*num_threads=*/8);
}

TEST(ParallelStressTest, SingleThreadRunsInOrder) {
  // num_threads=1 is the serial fast path: strict iteration order.
  std::vector<std::size_t> order;
  parallel_for(100, [&](std::size_t i) { order.push_back(i); },
               /*num_threads=*/1);
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

// Three levels of nesting while the outer call holds every pool worker:
// each nested call finds no idle worker and runs on its caller alone, and
// none of them starts a thread.
TEST(ParallelStressTest, ThreeDeepNestingWhileEveryWorkerIsBusy) {
  parallel_for(16, [](std::size_t) {}, /*num_threads=*/4);
  const unsigned workers = pool_threads();
  ASSERT_GE(workers, 3u);

  const std::size_t outer = workers + 1;  // the caller plus every worker
  const std::size_t mid = 6;
  const std::size_t inner = 50;
  Rendezvous rendezvous(static_cast<unsigned>(outer));
  std::atomic<bool> all_busy{true};
  std::vector<std::atomic<std::size_t>> totals(outer);
  parallel_for(
      outer,
      [&](std::size_t o) {
        // Hold this participant until every one has claimed an item.
        if (!rendezvous.arrive_and_wait()) all_busy.store(false);
        parallel_for(
            mid,
            [&](std::size_t m) {
              parallel_for(
                  inner,
                  [&](std::size_t i) {
                    totals[o].fetch_add(m * inner + i,
                                        std::memory_order_relaxed);
                  },
                  /*num_threads=*/4);
            },
            /*num_threads=*/4);
      },
      static_cast<unsigned>(outer));
  EXPECT_TRUE(all_busy.load()) << "the pool did not lend every worker";
  const std::size_t n = mid * inner;
  for (std::size_t o = 0; o < outer; ++o) {
    EXPECT_EQ(totals[o].load(), n * (n - 1) / 2) << "outer item " << o;
  }
  EXPECT_EQ(pool_threads(), workers);
}

// The TrainContext::columns() pattern: 4 concurrent outer items (tunes)
// each fan out trials, and every trial takes one shared mutex (the
// context's) and calls parallel_for while holding it (the ColumnIndex
// build). Spare workers keep nested jobs helped, so a caller waits for
// its helpers while sibling trials sit queued. A waiting caller that ran
// one of them would lock the mutex it already holds; the pool never lends
// a waiting caller to another job.
TEST(ParallelStressTest, ParallelForUnderASharedLockNeverDeadlocks) {
  parallel_for(64, [](std::size_t) {}, /*num_threads=*/9);  // spare workers
  Mutex context;
  const std::size_t tunes = 4, trials = 4, columns = 64;
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> total{0};
    parallel_for(
        tunes,
        [&](std::size_t) {
          parallel_for(
              trials,
              [&](std::size_t) {
                MutexLock lock(context);
                parallel_for(
                    columns,
                    [&](std::size_t c) {
                      std::this_thread::yield();  // let helpers join
                      total.fetch_add(c, std::memory_order_relaxed);
                    },
                    /*num_threads=*/4);
              },
              /*num_threads=*/4);
        },
        /*num_threads=*/4);
    ASSERT_EQ(total.load(), tunes * trials * (columns * (columns - 1) / 2))
        << "round " << round;
  }
}

// A failure inside a nested job reaches the root call, and leaves the
// pool whole: the next call on it runs every item with no new threads.
TEST(ParallelStressTest, PoolServesNormallyAfterNestedException) {
  parallel_for(16, [](std::size_t) {}, /*num_threads=*/4);
  const unsigned workers = pool_threads();
  EXPECT_THROW(
      parallel_for(
          8,
          [](std::size_t o) {
            parallel_for(
                200,
                [o](std::size_t i) {
                  if (o == 5 && i == 120) throw Error("nested failure");
                },
                /*num_threads=*/4);
          },
          /*num_threads=*/4),
      Error);
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
               /*num_threads=*/4);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_EQ(pool_threads(), workers);
}

// A call asking for more workers than the pool's cap runs with the cap.
// Even with a broken cap, this starts at most 99 threads.
TEST(ParallelStressTest, PoolNeverExceedsItsCap) {
  Mutex mu;
  std::set<std::thread::id> participants;
  std::atomic<std::size_t> sum{0};
  const std::size_t n = 100000;
  parallel_for(
      n,
      [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
        if (i % 64 == 0) {
          MutexLock lock(mu);
          participants.insert(std::this_thread::get_id());
        }
      },
      /*num_threads=*/100);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_LE(pool_threads(), 64u);
  MutexLock lock(mu);
  EXPECT_LE(participants.size(), 65u);  // the caller plus 64 workers
}

// The pool grows to the helpers a call asks for and no further: in a
// fresh process, 1000 calls at 4 threads leave exactly 3 workers.
TEST(ParallelStressTest, PoolGrowsOnceForRepeatedCalls) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // fresh pool
  EXPECT_EXIT(
      {
        std::atomic<std::size_t> count{0};
        for (int call = 0; call < 1000; ++call) {
          parallel_for(16, [&](std::size_t) { count.fetch_add(1); },
                       /*num_threads=*/4);
        }
        std::exit(count.load() == 16000 ? static_cast<int>(pool_threads())
                                        : 100);
      },
      ::testing::ExitedWithCode(3), "");
}

TEST(ParallelStressTest, ThreadCountLargerThanWork) {
  // More threads than iterations must not over-execute or hang.
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); },
               /*num_threads=*/64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace anb
