#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/serve/protocol.hpp"
#include "anb/serve/scheduler.hpp"
#include "anb/util/mutex.hpp"
#include "anb/util/net.hpp"
#include "anb/util/thread_annotations.hpp"

// anbd's serving core: a Server open()s-once benchmark process that
// answers protocol frames over a unix-domain socket. One I/O thread runs
// poll(2) over the listener, every client socket and a wake descriptor; it
// parses frames, submits queries to the scheduler and writes each
// connection's bounded outbox. Each turn of the loop submits its queries
// without a wake and then calls Scheduler::flush_or_wake() once: with
// every worker idle and at most kInlineMaxRows rows pending, the loop
// runs the flush itself and queues its answers in the same turn (a lone
// query crosses no thread); otherwise one worker is woken. Scheduler
// workers never touch a socket: they post finished responses to a
// completion queue and wake the loop. So a running server owns one I/O
// thread plus its scheduler workers, however many clients connect, and a
// client that stops reading can never hold up a flush or another
// connection.
// See DESIGN.md "Serving & micro-batch coalescing".

namespace anb::serve {

/// Fault-injection sites on the connection paths (anb/util/fault.hpp).
/// All three key their Bernoulli decision on
/// hash(client_id, incarnation, request_id) — identity from the
/// connection's kHello (a hello request keys under the identity it
/// announces), request ids chosen by the client — so armed runs fire
/// identically at any server thread count or interleaving: the
/// ServeReport invariance contract of tests/serve/serve_fault_test.cpp.
/// Each request draws each decision once.
///
/// read.stall: the connection handles no request until a timer of
/// 0.2–2.2 ms (scaled by the fault's draw) fires: a slow client that
/// delays only itself. write.slow: drawn as a response is queued; the
/// connection sends nothing until such a timer fires. Both are timers in
/// the I/O loop's poll set, never sleeps.
/// drop: the server closes the connection instead of answering — the
/// client sees EOF mid-conversation and must reconnect (bumping its
/// incarnation so retried requests draw fresh fault decisions).
inline constexpr const char* kServeReadStallSite = "serve.conn.read.stall";
inline constexpr const char* kServeWriteSlowSite = "serve.conn.write.slow";
inline constexpr const char* kServeDropSite = "serve.conn.drop";

/// How long a stop waits, once the scheduler has posted its last answer,
/// for a client to take the output its socket refuses. A connection still
/// holding unsent responses then is closed, and each of them counts as
/// dropped: a client that never reads cannot hold a stop (or anbd's
/// SIGTERM drain) open.
inline constexpr std::int64_t kDrainGraceNs = 1'000'000'000;

/// client_id reported for connections that never sent kHello.
inline constexpr std::uint64_t kAnonymousClient = ~std::uint64_t{0};

struct ServeOptions {
  /// Unix socket path; empty picks a fresh net::unique_socket_path.
  std::string socket_path;
  /// Queries always go through the coalescing scheduler;
  /// `scheduler.batch_max = 1` is the uncoalesced baseline (rows never
  /// share a flush).
  SchedulerOptions scheduler;
  /// Per-connection bound on queued-but-unsent responses. A client that
  /// stops reading past this is forcibly disconnected (never blocks the
  /// server).
  std::size_t outbox_capacity = 1024;
};

/// Per-client accounting, keyed by the kHello client id. Counts request
/// *outcomes* (a response was produced), which is what the determinism
/// contract can promise — whether a response also reached a client that
/// vanished mid-flight is the client's business, but its outcome is
/// still counted. Conservation law:
/// received == ok + error + retry_later + dropped.
struct ClientReport {
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t error = 0;
  std::uint64_t retry_later = 0;
  /// Requests eaten by a drop fault, or answered but not delivered
  /// within a stop's drain grace (kDrainGraceNs).
  std::uint64_t dropped = 0;
  std::uint64_t stall_faults = 0;
  std::uint64_t slow_faults = 0;

  friend bool operator==(const ClientReport&, const ClientReport&) = default;
};

/// Whole-server accounting; totals are sums of the per-client rows plus
/// anonymous traffic, scheduler stats come from the flush path. Exact and
/// thread-invariant after quiescence (stop(), or all clients done).
struct ServeReport {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_received = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t retry_later = 0;
  std::uint64_t dropped = 0;
  std::uint64_t batches = 0;
  std::uint64_t rows = 0;
  std::map<std::uint64_t, ClientReport> clients;
  std::map<std::string, std::uint64_t> bucket_rows;
};

class Server {
 public:
  /// `bench` must outlive the server; its surrogates must be installed
  /// before start(). Queries on it are const and thread-safe.
  explicit Server(const AccelNASBench& bench, ServeOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket, start the scheduler and the I/O thread. The socket
  /// path is available (and connectable) once start() returns.
  void start();

  /// Graceful stop: refuse new connections, drain the scheduler (every
  /// admitted request still gets its response), flush outboxes for up to
  /// kDrainGraceNs, join all threads, unlink the socket. Idempotent.
  /// Rethrows, once, an error that ended the I/O thread early.
  void stop();

  const std::string& socket_path() const;

  /// Block until a client sends kShutdown, stop_async() is called or
  /// another thread calls stop(); performs the stop before returning
  /// (daemon main loop).
  void wait();

  /// Ask a started server to stop, as a kShutdown frame does: wait() then
  /// drains and returns. Async-signal-safe (anbd calls it from its
  /// SIGTERM/SIGINT handler).
  void stop_async() noexcept;

  /// Merged accounting snapshot. Deterministic once quiescent.
  ServeReport report() const;

  /// The scheduler, for tests that pause/resume flushing to make
  /// admission-control outcomes exact.
  Scheduler& scheduler_for_test() { return scheduler_; }

 private:
  struct Connection;
  struct Completion;  ///< a finished response, posted to the I/O thread
  struct Loop;        ///< the I/O thread's poll set and scratch buffers

  void io_loop();
  /// One round of the I/O loop; false once a stop has drained it all.
  bool turn(Loop& loop) ANB_REQUIRES(mu_);
  void serve_input(std::uint64_t id, Connection& conn) ANB_REQUIRES(mu_);
  void answer(std::uint64_t id, Connection& conn, Request req)
      ANB_REQUIRES(mu_);
  void post(Completion done);
  /// Queue the posted responses on their connections.
  void take_completions(Loop& loop) ANB_REQUIRES(mu_);

  const AccelNASBench& bench_;
  const ServeOptions options_;
  Scheduler scheduler_;

  mutable Mutex mu_;
  CondVar shutdown_cv_;
  bool running_ ANB_GUARDED_BY(mu_) = false;
  bool stop_requested_ ANB_GUARDED_BY(mu_) = false;
  /// stop() has drained the scheduler: the loop flushes and exits.
  bool draining_ ANB_GUARDED_BY(mu_) = false;
  std::uint64_t connections_accepted_ ANB_GUARDED_BY(mu_) = 0;
  /// Open connections, plus closed ones still owed completions, by the
  /// serial id their scheduler callbacks carry. Only the I/O thread
  /// changes them; report() reads them.
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_
      ANB_GUARDED_BY(mu_);
  std::uint64_t next_connection_id_ ANB_GUARDED_BY(mu_) = 0;
  /// Counters of finished connections, merged by client id so report()
  /// stays exact across connection churn.
  std::map<std::uint64_t, ClientReport> closed_clients_ ANB_GUARDED_BY(mu_);
  std::exception_ptr io_error_ ANB_GUARDED_BY(mu_);

  Mutex done_mu_;
  std::vector<Completion> done_ ANB_GUARDED_BY(done_mu_);
  std::atomic<bool> stop_signalled_{false};
  net::WakeFd wake_;

  std::unique_ptr<net::Listener> listener_;
  std::string socket_path_;
  std::thread io_thread_;
};

}  // namespace anb::serve
