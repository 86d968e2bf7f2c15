#pragma once

#include <cstddef>
#include <functional>

namespace anb {

/// Fault-injection site checked once per parallel_for iteration (keyed by
/// the iteration index, so seeded-Bernoulli arming is thread-count
/// invariant): when it fires, the worker throws fault::InjectedFault
/// instead of running the body, exercising the capture-and-rethrow error
/// path under real concurrency. A no-op branch while the site is unarmed.
inline constexpr const char* kParallelForWorkerFaultSite =
    "util.parallel_for.worker";

/// An ANB_NUM_THREADS value: decimal digits only, in [1, 65535].
/// Anything else — null, empty, a sign, blanks, trailing junk such as
/// `4x`, an exponent, 0 or an out-of-range count — returns 0, which
/// default_num_threads() reads as "unset".
unsigned parse_num_threads(const char* text);

/// Number of worker threads `parallel_for` uses when a call site passes
/// `num_threads = 0`. Resolution order: the value installed with
/// set_default_num_threads() if non-zero, else the ANB_NUM_THREADS
/// environment variable (read once, with parse_num_threads), else hardware
/// concurrency.
/// Always returns >= 1.
///
/// This is the one knob the training engine exposes: every deterministic
/// parallel loop in the library produces bit-identical results at any
/// setting, so it only trades wall-clock for CPU (see DESIGN.md "Parallel
/// training & the binned matrix").
unsigned default_num_threads();

/// Install a process-wide thread-count override (0 = clear the override and
/// fall back to ANB_NUM_THREADS / hardware concurrency). Thread-safe.
void set_default_num_threads(unsigned num_threads);

/// Run `body(i)` for every i in [0, n) across up to `num_threads` worker
/// threads (0 = default_num_threads()). Blocks until all iterations finish.
///
/// The body must be safe to run concurrently for distinct i and must not
/// throw across the call boundary — exceptions are captured and the first
/// one is rethrown on the calling thread after all workers join. The join
/// provides the happens-before edge: workers' writes are visible to the
/// caller once parallel_for returns, with no extra synchronization.
///
/// Nested calls are supported: each invocation owns short-lived workers
/// and joins before returning, so there is no pool to re-enter and no
/// deadlock — the cost is thread oversubscription, which is why library
/// call sites parallelize only the outermost loop. Audited under TSan by
/// tests/util/parallel_stress_test.cpp.
///
/// Every simulator in this library derives its randomness from per-item
/// seeds rather than shared-stream order, so parallelizing loops like the
/// dataset collection changes nothing about the results — only wall-clock.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  unsigned num_threads = 0);

/// Run `body(begin, end)` over [0, n) carved into half-open chunks of at
/// most `chunk` items, across up to `num_threads` workers. The chunking is
/// a pure partition of the index range — results must not depend on which
/// worker runs which chunk, so any row-wise independent computation (e.g.
/// batched surrogate prediction) is deterministic under it. Small inputs
/// (a single chunk) run inline on the calling thread.
void parallel_for_chunks(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& body,
    unsigned num_threads = 0);

}  // namespace anb
