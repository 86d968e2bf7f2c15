#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/util/mutex.hpp"
#include "anb/util/thread_annotations.hpp"

// The coalescing micro-batch scheduler: the systems core of anbd. It
// queues incoming rows into per-target buckets and runs each flush as a
// single AccelNASBench batched query. Flushing is work-conserving: a
// worker that finds rows pending takes the largest bucket, up to
// `batch_max` rows, and flushes it at once. Rows pile up into bigger
// batches only while every worker is busy, so a lightly loaded server
// answers a lone query with a batch of one (no timer in its path) and a
// saturated one flushes full batches, where FlatForest's batched descent
// pays off.
//
// A caller that submits many requests in a row (anbd's I/O loop, once
// per poll turn) submits them with Wake::kDeferred and then calls
// flush_or_wake() once. When no worker is flushing and at most
// kInlineMaxRows rows wait, that call runs the flush itself, so a lone
// query costs no thread hand-off; otherwise it wakes one worker, so a
// busy turn pays one wake, not one per request. Both executors run the
// same extract_flush/execute_flush, so batching, stats() and the values
// are one code path.
//
// Determinism contract: coalescing NEVER changes a response value. A
// flushed batch runs through query_*_batch, which is bit-identical to
// per-row scalar queries by the PR 2/8 contracts; rows of different
// requests never mix arithmetically. So the same request multiset yields
// bit-identical values regardless of arrival interleaving, batch cut
// points, worker count, or whether coalescing is on at all — enforced by
// tests/serve/serve_determinism_test.cpp.

namespace anb::serve {

/// Which surrogate a row targets: the accuracy model or one MetricKey,
/// within one search space. Rows only ever coalesce within a bucket, so
/// rows of different spaces can never mix in one batched query.
struct BucketKey {
  SpaceId space = SpaceId::kMnasNet;
  bool accuracy = true;
  MetricKey key;  ///< meaningful iff !accuracy

  friend bool operator==(const BucketKey&, const BucketKey&) = default;
  friend auto operator<=>(const BucketKey&, const BucketKey&) = default;

  /// Dataset-style name: "ANB-Acc" or dataset_name(key); non-MnasNet
  /// buckets carry a "<space>:" prefix so report rows stay unambiguous.
  std::string name() const;
};

struct SchedulerOptions {
  /// Most rows one flush takes from a bucket.
  std::uint32_t batch_max = 64;
  /// How long a partial bucket is held for more rows: always 0, since a
  /// free worker flushes at once. Kept so reports can print the window.
  static constexpr std::uint32_t coalesce_wait_us = 0;
  /// Admission control: total rows pending across all buckets. A submit
  /// that would exceed it is rejected (the server answers kRetryLater).
  std::size_t queue_capacity = 4096;
  /// Flush workers; 0 = anb::default_num_threads(). With >= 2 workers,
  /// one in-flight flush never holds up another bucket's rows.
  unsigned worker_threads = 0;
};

/// Counters of a scheduler's lifetime, for ServeReport. Sums only, so
/// merge order cannot matter.
struct SchedulerStats {
  std::uint64_t batches = 0;
  std::uint64_t rows = 0;
  std::map<std::string, std::uint64_t> bucket_rows;  ///< by BucketKey::name()
};

/// Admission-control outcome of submit().
enum class Admit {
  kOk,         ///< rows queued; the callback will fire exactly once
  kQueueFull,  ///< bounded queue would overflow — retry later
  kStopped,    ///< scheduler is draining/stopped — no new work
};

/// Who starts a submission's rows.
enum class Wake {
  kNow,       ///< submit() wakes an idle worker
  kDeferred,  ///< the caller calls flush_or_wake() after its submissions
};

/// Most pending rows flush_or_wake() flushes on the calling thread. A
/// flush on anbd's I/O thread holds every other socket for its length.
/// On bench/serve_throughput's 10 x 1500-tree ensemble (~45 us a row),
/// coalesced QPS at 16 connections reads ~38% below the worker-only
/// server with no bound and ~6% below it at 4 rows (1 row is no better),
/// while perfbench serve's ~2 us rows take 47% off its op_ms at 4 rows
/// (4 cores; DESIGN.md "One I/O thread").
inline constexpr std::size_t kInlineMaxRows = 4;

class Scheduler {
 public:
  /// Called exactly once per admitted submission, on a worker thread or
  /// in flush_or_wake() on its caller's thread.
  /// `values[i]` answers `archs[i]` of the submission; `error` is empty on
  /// success (non-empty means an unexpected benchmark failure — the values
  /// are meaningless). Callbacks must not block: they run on the flush
  /// workers, and a blocking callback would hold up other buckets.
  using BatchCallback =
      std::function<void(std::vector<double> values, std::string error)>;

  /// `bench` must outlive the scheduler and have its surrogates installed
  /// before start(); queries are const and thread-safe.
  Scheduler(const AccelNASBench& bench, const SchedulerOptions& options);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void start();

  /// Drain: flush everything pending, run all callbacks, join workers.
  /// Idempotent. After stop(), submit() returns kStopped.
  void stop();

  /// Queue `archs` (architecture indices) against `bucket`. The caller
  /// must have verified the benchmark has a surrogate for the bucket.
  /// With Wake::kDeferred nobody is woken: the caller must call
  /// flush_or_wake() before it waits for anything.
  Admit submit(const BucketKey& bucket, std::vector<std::uint64_t> archs,
               BatchCallback done, Wake wake = Wake::kNow);

  /// Start the pending rows. When no worker is executing a flush,
  /// flushing is neither paused nor draining, and at most kInlineMaxRows
  /// rows wait, run one flush on the calling thread (its callbacks fire
  /// before this returns) and return true. Otherwise wake one worker and
  /// return false. Rows the flush leaves behind wake a worker either way.
  bool flush_or_wake() ANB_EXCLUDES(mu_);

  /// Hold all flushing (submissions still accepted until the queue
  /// fills). Deterministic admission-control tests use this to fill the
  /// queue to an exact level before any flush can race the count.
  void pause();
  void resume();

  SchedulerStats stats() const;

 private:
  struct Group;
  struct Row;
  struct Bucket;
  struct Flush;

  void worker_loop();
  /// Largest bucket first; ties broken by key order. Requires mu_ held.
  Flush extract_flush() ANB_REQUIRES(mu_);
  void execute_flush(Flush&& flush);

  const AccelNASBench& bench_;
  const SchedulerOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  bool started_ ANB_GUARDED_BY(mu_) = false;
  bool draining_ ANB_GUARDED_BY(mu_) = false;
  bool paused_ ANB_GUARDED_BY(mu_) = false;
  std::size_t total_rows_ ANB_GUARDED_BY(mu_) = 0;
  /// Workers between extract_flush() and the end of execute_flush().
  unsigned busy_workers_ ANB_GUARDED_BY(mu_) = 0;
  std::map<BucketKey, Bucket> buckets_ ANB_GUARDED_BY(mu_);
  // SchedulerStats, keyed by bucket; stats() turns keys into names.
  std::uint64_t batches_ ANB_GUARDED_BY(mu_) = 0;
  std::uint64_t rows_ ANB_GUARDED_BY(mu_) = 0;
  std::map<BucketKey, std::uint64_t> bucket_rows_ ANB_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
};

}  // namespace anb::serve
