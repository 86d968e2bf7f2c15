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

/// Run `body(i)` for every i in [0, n) on the calling thread plus up to
/// `num_threads - 1` helpers (0 = default_num_threads()) from one
/// process-wide pool of persistent threads. Blocks until all iterations
/// finish. Each item goes to whichever participant claims the next index,
/// so the body must be a pure function of i for results to be independent
/// of the thread count.
///
/// The body must be safe to run concurrently for distinct i. Exceptions
/// are captured and the first one is rethrown on the calling thread after
/// every helper has left the call; that hand-off is also the
/// happens-before edge that makes helpers' writes visible to the caller
/// once parallel_for returns, with no extra synchronization.
///
/// The pool starts helpers lazily, up to the largest count any call has
/// asked for and never more than 64 (a call asking for more runs with 64);
/// they never exit. So only a call asking for more helpers than every call
/// before it starts threads. The gauge `anb.parallel.pool_threads` reads
/// the pool's size. Nested calls are supported and share the pool: a
/// nested call takes only helpers that are idle, and runs on its caller
/// alone when every helper is busy. A caller whose items are done sleeps
/// until its helpers leave and never runs another call's items, so a body
/// may call parallel_for while holding a lock. Audited under TSan by
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
