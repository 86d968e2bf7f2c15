#include "anb/util/parallel.hpp"

#include <atomic>
#include <cstdlib>
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

/// First exception thrown by any worker, captured under its own mutex so
/// the rethrow on the calling thread is race-free (and provable so: the
/// slot is ANB_GUARDED_BY the mutex).
struct ErrorSlot {
  Mutex mu;
  std::exception_ptr first ANB_GUARDED_BY(mu);

  void capture(std::exception_ptr error) {
    MutexLock lock(mu);
    if (!first) first = std::move(error);
  }

  /// Safe after all workers joined (the join is the happens-before edge).
  void rethrow_if_set() {
    MutexLock lock(mu);
    if (first) std::rethrow_exception(first);
  }
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

  if (num_threads == 1) {
    ANB_SPAN("anb.parallel.worker");
    for (std::size_t i = 0; i < n; ++i) {
      if (fault::any_armed()) fault::maybe_throw(kParallelForWorkerFaultSite, i);
      body(i);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  ErrorSlot error;

  auto worker = [&] {
    // Per-worker busy time: one span covering the worker's whole drain of
    // the shared index. Durations are wall-clock and nondeterministic.
    ANB_SPAN("anb.parallel.worker");
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        if (fault::any_armed())
          fault::maybe_throw(kParallelForWorkerFaultSite, i);
        body(i);
      } catch (...) {
        error.capture(std::current_exception());
        // Drain remaining work quickly after a failure.
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) threads.emplace_back(worker);
  for (auto& thread : threads) thread.join();
  error.rethrow_if_set();
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
