#include "anb/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"
#include "anb/util/mutex.hpp"
#include "anb/util/thread_annotations.hpp"

namespace anb {

namespace {

/// First exception thrown by any participant, captured under its own mutex
/// so the rethrow on the calling thread is race-free (and provable so: the
/// slot is ANB_GUARDED_BY the mutex).
struct ErrorSlot {
  Mutex mu;
  std::exception_ptr first ANB_GUARDED_BY(mu);

  void capture(std::exception_ptr error) {
    MutexLock lock(mu);
    if (!first) first = std::move(error);
  }

  /// Safe once every helper has left the job (the pool mutex is the
  /// happens-before edge).
  void rethrow_if_set() {
    MutexLock lock(mu);
    if (first) std::rethrow_exception(first);
  }
};

/// One parallel_for call: the body, the shared index every participant
/// claims items from, and the first error. Lives on the caller's stack.
struct Job {
  Job(const std::function<void(std::size_t)>& fn, std::size_t count,
      unsigned helpers)
      : body(fn), n(count), wanted(helpers) {}

  const std::function<void(std::size_t)>& body;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  ErrorSlot error;
  // Guarded by Pool::mu_ (a member of another type, so not annotated).
  unsigned wanted;      // helpers still to join while the job is queued
  unsigned active = 0;  // helpers draining it now
};

/// Claim and run items of `job` until none are left or a participant
/// failed. One span per participant covers its whole drain (wall-clock,
/// nondeterministic).
void drain(Job& job) {
  ANB_SPAN("anb.parallel.worker");
  while (true) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      if (fault::any_armed())
        fault::maybe_throw(kParallelForWorkerFaultSite, i);
      job.body(i);
    } catch (...) {
      job.error.capture(std::current_exception());
      // Drain remaining work quickly after a failure.
      job.next.store(job.n, std::memory_order_relaxed);
      return;
    }
  }
}

/// Most helper threads the pool ever holds. ANB_NUM_THREADS accepts up to
/// 65,535, and a call asking for more helpers than this runs with this many.
constexpr unsigned kMaxPoolWorkers = 64;

/// The process-wide pool of persistent helpers. A call enqueues its job,
/// drains it itself, and takes it off the queue; idle helpers join queued
/// jobs in FIFO order. A caller never runs another job's items: it sleeps
/// until its own job's helpers leave. Bodies call parallel_for while
/// holding a lock (TrainContext::columns() does), and a waiting caller
/// that ran a sibling's item could take that lock again and deadlock.
class Pool {
 public:
  /// Leaked on purpose, like the obs registry: helpers never exit, so
  /// neither the pool nor their std::thread handles is ever destroyed.
  static Pool& get() {
    static Pool* pool = new Pool();
    return *pool;
  }

  /// Run `job` on the calling thread plus up to `job.wanted` idle workers
  /// (1 <= wanted <= kMaxPoolWorkers). Returns once every helper that
  /// joined has left; rethrows the job's first error.
  void run(Job& job) {
    {
      MutexLock lock(mu_);
      grow_locked(job.wanted);
      queue_.push_back(&job);
      for (unsigned h = 0; h < job.wanted; ++h) work_.notify_one();
    }
    drain(job);
    {
      MutexLock lock(mu_);
      const auto it = std::find(queue_.begin(), queue_.end(), &job);
      if (it != queue_.end()) queue_.erase(it);
      helper_left_.wait(
          mu_, [&job]() ANB_REQUIRES(mu_) { return job.active == 0; });
    }
    job.error.rethrow_if_set();
  }

 private:
  Pool() = default;

  /// Start workers until the pool holds `helpers` of them: only a call
  /// asking for more helpers than every call before it starts threads.
  void grow_locked(unsigned helpers) ANB_REQUIRES(mu_) {
    while (workers_.size() < helpers)
      workers_.emplace_back([this] { work(); });
    static obs::Gauge& pool_threads = obs::gauge("anb.parallel.pool_threads");
    pool_threads.set(static_cast<double>(workers_.size()));
  }

  [[noreturn]] void work() {
    while (true) {
      Job* job = nullptr;
      {
        MutexLock lock(mu_);
        job = take_locked();
        ++job->active;
      }
      drain(*job);
      MutexLock lock(mu_);
      // Last access to the job: its caller returns only after seeing
      // active == 0 under mu_.
      if (--job->active == 0) helper_left_.notify_all();
    }
  }

  /// Block until a queued job still has items to claim, and count this
  /// thread against the helpers it wants. Spent jobs leave the queue.
  Job* take_locked() ANB_REQUIRES(mu_) {
    while (true) {
      work_.wait(mu_, [this]() ANB_REQUIRES(mu_) { return !queue_.empty(); });
      Job* job = queue_.front();
      const bool spent = job->next.load(std::memory_order_relaxed) >= job->n;
      if (spent || --job->wanted == 0) queue_.pop_front();
      if (!spent) return job;
    }
  }

  Mutex mu_;
  CondVar work_;         // a job was queued
  CondVar helper_left_;  // some job's last helper left it
  std::deque<Job*> queue_ ANB_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ ANB_GUARDED_BY(mu_);
};

/// Largest thread count ANB_NUM_THREADS accepts.
constexpr unsigned kMaxNumThreads = 0xFFFF;

/// ANB_NUM_THREADS, parsed once; 0 when unset/invalid.
unsigned env_num_threads() {
  static const unsigned value = parse_num_threads(
      std::getenv("ANB_NUM_THREADS"));
  return value;
}

std::atomic<unsigned> g_default_num_threads{0};

}  // namespace

unsigned parse_num_threads(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  unsigned value = 0;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return 0;
    value = value * 10 + static_cast<unsigned>(*c - '0');
    if (value > kMaxNumThreads) return 0;
  }
  return value;
}

unsigned default_num_threads() {
  const unsigned installed =
      g_default_num_threads.load(std::memory_order_relaxed);
  if (installed != 0) return installed;
  const unsigned env = env_num_threads();
  if (env != 0) return env;
  return std::max(1u, std::thread::hardware_concurrency());
}

void set_default_num_threads(unsigned num_threads) {
  g_default_num_threads.store(num_threads, std::memory_order_relaxed);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  unsigned num_threads) {
  ANB_CHECK(static_cast<bool>(body), "parallel_for: null body");
  if (n == 0) return;
  if (num_threads == 0) num_threads = default_num_threads();
  num_threads = static_cast<unsigned>(
      std::min<std::size_t>(num_threads, n));

  // Call/item counts depend only on the work submitted, never on the
  // thread count — both are covered by the obs determinism contract.
  static obs::Counter& calls = obs::counter("anb.parallel.calls");
  static obs::Counter& items = obs::counter("anb.parallel.items");
  calls.add(1);
  items.add(n);

  const unsigned helpers = std::min(num_threads - 1, kMaxPoolWorkers);
  Job job(body, n, helpers);
  if (helpers == 0) {
    drain(job);  // serial: items run in index order on the calling thread
    job.error.rethrow_if_set();
    return;
  }
  Pool::get().run(job);
}

void parallel_for_chunks(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& body,
    unsigned num_threads) {
  ANB_CHECK(static_cast<bool>(body), "parallel_for_chunks: null body");
  ANB_CHECK(chunk > 0, "parallel_for_chunks: chunk must be > 0");
  if (n == 0) return;
  if (n <= chunk) {
    body(0, n);
    return;
  }
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  parallel_for(
      n_chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        body(begin, std::min(n, begin + chunk));
      },
      num_threads);
}

}  // namespace anb
