#include "anb/serve/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <span>
#include <utility>

#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"

namespace anb::serve {

namespace {

obs::Counter& batch_count() {
  static obs::Counter& c = obs::counter("anb.serve.batch.count");
  return c;
}
obs::Counter& batch_rows() {
  static obs::Counter& c = obs::counter("anb.serve.batch.rows");
  return c;
}
obs::Histogram& batch_size_hist() {
  static obs::Histogram& h = obs::histogram("anb.serve.batch.size");
  return h;
}
/// The flushes flush_or_wake() ran on its caller, and their rows. Like
/// batch.count they depend on timing.
obs::Counter& inline_batches() {
  static obs::Counter& c = obs::counter("anb.serve.inline.batches");
  return c;
}
obs::Counter& inline_rows() {
  static obs::Counter& c = obs::counter("anb.serve.inline.rows");
  return c;
}

}  // namespace

std::string BucketKey::name() const {
  const std::string base = accuracy ? "ANB-Acc" : dataset_name(key);
  if (space == SpaceId::kMnasNet) return base;  // v1-compatible names
  return std::string(space_name(space)) + ":" + base;
}

/// One admitted submission: result slots for each of its rows plus the
/// completion callback. Rows of one group may be cut across several
/// flushes (batch_max boundaries); the last row delivered fires the
/// callback. `remaining` is the only cross-flush synchronization — the
/// acq_rel decrement orders every slot write before the callback.
struct Scheduler::Group {
  std::vector<double> values;
  std::atomic<std::size_t> remaining{0};
  BatchCallback done;
  Mutex error_mu;
  std::string error ANB_GUARDED_BY(error_mu);

  void deliver_error(const std::string& message) {
    MutexLock lock(error_mu);
    if (error.empty()) error = message;
  }

  void finish_row() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::string err;
      {
        MutexLock lock(error_mu);
        err = error;
      }
      done(std::move(values), std::move(err));
    }
  }
};

/// One pending row: which architecture, and where its value lands.
struct Scheduler::Row {
  std::uint64_t arch_index = 0;
  std::shared_ptr<Group> group;
  std::size_t slot = 0;
};

struct Scheduler::Bucket {
  std::deque<Row> rows;
  /// Registered on first use; obs handles are stable for process life.
  obs::Counter* rows_counter = nullptr;
};

/// An extracted unit of work, executed outside the lock. Carries the
/// bucket's counter so a flush never looks an obs name up.
struct Scheduler::Flush {
  BucketKey bucket;
  obs::Counter* rows_counter = nullptr;
  std::vector<Row> rows;
};

Scheduler::Scheduler(const AccelNASBench& bench,
                     const SchedulerOptions& options)
    : bench_(bench), options_(options) {
  ANB_CHECK(options.batch_max > 0, "SchedulerOptions.batch_max must be > 0");
  ANB_CHECK(options.queue_capacity > 0,
            "SchedulerOptions.queue_capacity must be > 0");
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::start() {
  unsigned n;
  {
    MutexLock lock(mu_);
    ANB_CHECK(!started_, "Scheduler::start called twice");
    started_ = true;
    draining_ = false;
    n = options_.worker_threads != 0 ? options_.worker_threads
                                     : default_num_threads();
  }
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Scheduler::stop() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    draining_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  MutexLock lock(mu_);
  started_ = false;
}

Admit Scheduler::submit(const BucketKey& bucket,
                        std::vector<std::uint64_t> archs,
                        BatchCallback done, Wake wake) {
  ANB_CHECK(!archs.empty(), "Scheduler::submit with no rows");
  auto group = std::make_shared<Group>();
  group->values.assign(archs.size(), 0.0);
  group->remaining.store(archs.size(), std::memory_order_relaxed);
  group->done = std::move(done);

  {
    MutexLock lock(mu_);
    if (!started_ || draining_) return Admit::kStopped;
    if (total_rows_ + archs.size() > options_.queue_capacity) {
      return Admit::kQueueFull;
    }
    Bucket& b = buckets_[bucket];
    if (b.rows_counter == nullptr) {
      b.rows_counter = &obs::counter("anb.serve.rows." + bucket.name());
    }
    for (std::size_t i = 0; i < archs.size(); ++i) {
      b.rows.push_back(Row{archs[i], group, i});
    }
    total_rows_ += archs.size();
  }
  if (wake == Wake::kNow) cv_.notify_one();
  return Admit::kOk;
}

bool Scheduler::flush_or_wake() {
  Flush flush;
  bool wake;
  {
    MutexLock lock(mu_);
    if (total_rows_ == 0) return false;
    if (busy_workers_ == 0 && !paused_ && !draining_ &&
        total_rows_ <= kInlineMaxRows) {
      flush = extract_flush();
    }
    wake = total_rows_ > 0;
  }
  if (wake) cv_.notify_one();
  if (flush.rows.empty()) return false;
  inline_batches().add(1);
  inline_rows().add(flush.rows.size());
  execute_flush(std::move(flush));
  return true;
}

void Scheduler::pause() {
  MutexLock lock(mu_);
  paused_ = true;
}

void Scheduler::resume() {
  {
    MutexLock lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

SchedulerStats Scheduler::stats() const {
  MutexLock lock(mu_);
  SchedulerStats out;
  out.batches = batches_;
  out.rows = rows_;
  for (const auto& [key, rows] : bucket_rows_) {
    out.bucket_rows[key.name()] += rows;
  }
  return out;
}

Scheduler::Flush Scheduler::extract_flush() {
  Flush flush;
  Bucket* best = nullptr;
  for (auto& [key, bucket] : buckets_) {
    if (bucket.rows.empty()) continue;
    if (best == nullptr || bucket.rows.size() > best->rows.size()) {
      best = &bucket;
      flush.bucket = key;
    }
  }
  ANB_ASSERT(best != nullptr, "extract_flush with no pending rows");
  flush.rows_counter = best->rows_counter;
  const std::size_t take =
      std::min<std::size_t>(best->rows.size(), options_.batch_max);
  flush.rows.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    flush.rows.push_back(std::move(best->rows.front()));
    best->rows.pop_front();
  }
  total_rows_ -= take;
  batches_ += 1;
  rows_ += take;
  bucket_rows_[flush.bucket] += take;
  return flush;
}

void Scheduler::worker_loop() {
  for (bool flushed = false;; flushed = true) {
    Flush flush;
    bool more = false;
    {
      MutexLock lock(mu_);
      if (flushed) busy_workers_ -= 1;
      cv_.wait(mu_, [this]() ANB_REQUIRES(mu_) {
        return draining_ || (total_rows_ > 0 && !paused_);
      });
      if (total_rows_ == 0) return;  // draining, and nothing is left
      flush = extract_flush();
      busy_workers_ += 1;
      more = total_rows_ > 0;
    }
    // Rows left behind a full flush go to the next idle worker.
    if (more) cv_.notify_one();
    execute_flush(std::move(flush));
  }
}

void Scheduler::execute_flush(Flush&& flush) {
  ANB_SPAN("anb.serve.flush");
  const std::size_t n = flush.rows.size();
  batch_count().add(1);
  batch_rows().add(n);
  batch_size_hist().observe(n);
  flush.rows_counter->add(n);

  const SearchSpace& sp = anb::space(flush.bucket.space);
  std::vector<Arch> archs;
  archs.reserve(n);
  for (const Row& row : flush.rows) {
    archs.push_back(sp.from_index(row.arch_index));
  }

  std::vector<double> values;
  std::string error;
  try {
    values = flush.bucket.accuracy
                 ? bench_.query_accuracy_batch(std::span<const Arch>(archs))
                 : bench_.query_perf_batch(std::span<const Arch>(archs),
                                           flush.bucket.key);
  } catch (const Error& e) {
    error = e.what();
  }

  for (std::size_t i = 0; i < n; ++i) {
    Row& row = flush.rows[i];
    if (error.empty()) {
      row.group->values[row.slot] = values[i];
    } else {
      row.group->deliver_error(error);
    }
    row.group->finish_row();
  }
}

}  // namespace anb::serve
