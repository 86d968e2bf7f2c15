#include "anb/serve/server.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "anb/obs/registry.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/serve/protocol.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"
#include "anb/util/rng.hpp"

namespace anb::serve {

namespace {

obs::Counter& connections_counter() {
  static obs::Counter& c = obs::counter("anb.serve.connections");
  return c;
}
obs::Counter& requests_counter() {
  static obs::Counter& c = obs::counter("anb.serve.requests");
  return c;
}
/// How a request was answered: the ClientReport column it counts in.
enum class Outcome : std::uint8_t { kOk, kError, kRetryLater };

obs::Counter& outcome_counter(Outcome outcome) {
  static obs::Counter& ok = obs::counter("anb.serve.responses.ok");
  static obs::Counter& error = obs::counter("anb.serve.responses.error");
  static obs::Counter& retry = obs::counter("anb.serve.retry_later");
  return outcome == Outcome::kOk      ? ok
         : outcome == Outcome::kError ? error
                                      : retry;
}

/// A queued response frame and the outcome it was counted as.
struct QueuedReply {
  Outcome outcome;
  std::vector<char> frame;
};

/// request_id sits at a fixed offset in every encoded frame (after the
/// u32 length, u32 magic, u16 version, u16 type). The slow-write fault
/// re-reads it from queued response frames to key its decision.
std::uint64_t frame_request_id(const std::vector<char>& frame) {
  std::uint64_t id = 0;
  if (frame.size() >= 20) __builtin_memcpy(&id, frame.data() + 12, sizeof(id));
  return id;
}

/// Arm `timer` (made on first use) for a fired read-stall or slow-write
/// fault: 0.2–2.2 ms, scaled by the fault's draw.
void arm_fault_delay(std::unique_ptr<net::Timer>& timer,
                     const fault::FireInfo& f) {
  if (!timer) timer = std::make_unique<net::Timer>();
  timer->arm((200 + static_cast<std::int64_t>(f.uniform() * 2000.0)) * 1000);
}

/// True while `timer` runs: what it guards must wait.
bool waits(const std::unique_ptr<net::Timer>& timer) {
  return timer && !timer->expired();
}

void merge(ClientReport& into, const ClientReport& from) {
  into.received += from.received;
  into.ok += from.ok;
  into.error += from.error;
  into.retry_later += from.retry_later;
  into.dropped += from.dropped;
  into.stall_faults += from.stall_faults;
  into.slow_faults += from.slow_faults;
}

/// The server whose I/O loop runs on this thread, if any. A response
/// that loop's own flush posts is taken in the same turn, so it needs no
/// wake.
thread_local const Server* t_loop_server = nullptr;

constexpr std::size_t kNoSlot = ~std::size_t{0};
/// Slot of the wake descriptor in every poll set.
constexpr std::size_t kWakeSlot = 0;
/// How long the listener rests after accept ran out of descriptors,
/// unless a connection closes first.
constexpr std::int64_t kAcceptRestNs = 50'000'000;

}  // namespace

/// One accepted client connection. Owned by the I/O thread (through
/// connections_), which alone reads and writes it; it outlives its socket
/// while scheduler completions are still owed to it, so every outcome is
/// counted on its row.
struct Server::Connection {
  net::Socket socket;  ///< invalid once closed
  std::uint64_t client_id = kAnonymousClient;
  std::uint32_t incarnation = 0;
  ClientReport counts;

  std::vector<char> in;         ///< received bytes not yet handled
  bool eof = false;             ///< read nothing more (EOF, bad frame, stop)
  std::optional<Request> held;  ///< a request waiting out its read stall
  std::unique_ptr<net::Timer> stall;  ///< read stall: handle nothing yet

  std::deque<QueuedReply> outbox;  ///< responses not yet fully sent
  std::size_t outbox_capacity = 0;
  std::size_t sent = 0;              ///< bytes of outbox.front() sent
  std::unique_ptr<net::Timer> slow;  ///< slow write: send nothing yet

  std::size_t pending = 0;     ///< admitted queries not yet completed
  std::size_t slot = kNoSlot;  ///< index in the last poll set

  /// Fault-decision key for one request: pure in the client's
  /// self-declared identity and the request id, so an armed Bernoulli
  /// site fires on the same requests no matter how connections interleave
  /// or how many server threads run (the ServeReport invariance
  /// contract). Requests sent before kHello key under kAnonymousClient.
  std::uint64_t fault_key(std::uint64_t request_id) const {
    return hash_combine(hash_combine(client_id, incarnation), request_id);
  }

  /// Close now and discard everything unsent (drop fault, overflow, dead
  /// peer). Completions still owed are counted when they arrive.
  void abort() {
    socket.close();
    eof = true;
    in.clear();
    held.reset();
    outbox.clear();
    sent = 0;
  }

  /// Count a request's outcome and queue its response frame. A closed
  /// connection discards the frame; a client that let `outbox_capacity`
  /// responses pile up is disconnected, so it can never pin server
  /// memory. A slow-write fault, drawn once per response, holds back this
  /// connection's sends until its deadline.
  void reply(Outcome outcome, std::vector<char> frame) {
    column(outcome) += 1;
    outcome_counter(outcome).add(1);
    if (!socket.valid()) return;
    if (outbox.size() >= outbox_capacity) {
      abort();
      return;
    }
    if (fault::any_armed()) {
      if (auto f = fault::should_fire(kServeWriteSlowSite,
                                      fault_key(frame_request_id(frame)))) {
        counts.slow_faults += 1;
        arm_fault_delay(slow, *f);
      }
    }
    outbox.push_back({outcome, std::move(frame)});
  }

  /// A stop's drain grace ran out with output still unsent: close, and
  /// count each response the client never received as dropped.
  void give_up() {
    for (const QueuedReply& r : outbox) {
      column(r.outcome) -= 1;
      counts.dropped += 1;
    }
    abort();
  }

  /// Send what the socket takes of the outbox.
  void flush() {
    while (socket.valid() && !outbox.empty() && !waits(slow)) {
      const std::vector<char>& frame = outbox.front().frame;
      const std::optional<std::size_t> n =
          socket.try_send(std::span<const char>(frame).subspan(sent));
      if (!n) {
        abort();  // the peer is gone
        return;
      }
      sent += *n;
      if (sent < frame.size()) return;  // full: wait for POLLOUT
      outbox.pop_front();
      sent = 0;
    }
  }

 private:
  std::uint64_t& column(Outcome outcome) {
    return outcome == Outcome::kOk      ? counts.ok
           : outcome == Outcome::kError ? counts.error
                                        : counts.retry_later;
  }
};

struct Server::Completion {
  std::uint64_t conn = 0;  ///< connections_ key
  bool ok = false;
  std::vector<char> frame;
};

struct Server::Loop {
  net::PollSet polls;  ///< the set last waited on
  net::PollSet next;   ///< the set being built for the next wait
  std::vector<char> chunk = std::vector<char>(64 * 1024);
  std::vector<Completion> done;
  std::size_t listener_slot = kNoSlot;
  /// Runs while the listener rests after accept ran out of descriptors;
  /// made up front, since then no descriptor is left to make it.
  net::Timer accept_rest;
  /// Armed by the first draining turn; once it fires, a connection whose
  /// socket still refuses its output is given up. Made up front too.
  net::Timer drain_grace;
  bool drain_started = false;
};

Server::Server(const AccelNASBench& bench, ServeOptions options)
    : bench_(bench),
      options_(std::move(options)),
      scheduler_(bench, options_.scheduler) {}

Server::~Server() { stop(); }

void Server::start() {
  MutexLock lock(mu_);
  ANB_CHECK(!running_ && !io_thread_.joinable(), "Server::start called twice");
  socket_path_ = options_.socket_path.empty()
                     ? net::unique_socket_path("anbd")
                     : options_.socket_path;
  listener_ = std::make_unique<net::Listener>(socket_path_);
  scheduler_.start();
  running_ = true;
  stop_requested_ = false;
  draining_ = false;
  io_thread_ = std::thread([this] { io_loop(); });
}

void Server::stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    stop_requested_ = true;
  }
  shutdown_cv_.notify_all();
  wake_.notify();  // the loop stops accepting
  // Every admitted request still gets its response: the scheduler runs
  // what it holds, and the loop delivers those completions meanwhile.
  scheduler_.stop();
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  wake_.notify();
  io_thread_.join();
  listener_.reset();  // unlinks the socket path
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    error = std::exchange(io_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

const std::string& Server::socket_path() const { return socket_path_; }

void Server::wait() {
  {
    MutexLock lock(mu_);
    shutdown_cv_.wait(mu_, [this]() ANB_REQUIRES(mu_) {
      return stop_requested_;
    });
  }
  stop();
}

void Server::stop_async() noexcept {
  stop_signalled_.store(true);
  wake_.notify();
}

ServeReport Server::report() const {
  ServeReport r;
  {
    MutexLock lock(mu_);
    r.connections_accepted = connections_accepted_;
    r.clients = closed_clients_;
    for (const auto& [id, conn] : connections_) {
      merge(r.clients[conn->client_id], conn->counts);
    }
  }
  for (const auto& [id, row] : r.clients) {
    r.requests_received += row.received;
    r.responses_ok += row.ok;
    r.responses_error += row.error;
    r.retry_later += row.retry_later;
    r.dropped += row.dropped;
  }
  const SchedulerStats stats = scheduler_.stats();
  r.batches = stats.batches;
  r.rows = stats.rows;
  r.bucket_rows = stats.bucket_rows;
  return r;
}

void Server::post(Completion done) {
  bool was_empty;
  {
    MutexLock lock(done_mu_);
    was_empty = done_.empty();
    done_.push_back(std::move(done));
  }
  // One wake per batch: the loop takes the whole queue when it runs.
  if (was_empty && t_loop_server != this) wake_.notify();
}

void Server::take_completions(Loop& loop) {
  {
    MutexLock lock(done_mu_);
    loop.done.swap(done_);
  }
  for (Completion& c : loop.done) {
    Connection& conn = *connections_.at(c.conn);
    conn.pending -= 1;
    conn.reply(c.ok ? Outcome::kOk : Outcome::kError, std::move(c.frame));
  }
  loop.done.clear();
}

void Server::io_loop() {
  t_loop_server = this;
  try {
    Loop loop;
    loop.polls.add(wake_);  // kWakeSlot
    for (;;) {
      {
        MutexLock lock(mu_);
        if (!turn(loop)) return;
      }
      loop.polls.wait();
    }
  } catch (...) {
    // The loop cannot go on: wake wait(), and let stop() report why.
    MutexLock lock(mu_);
    io_error_ = std::current_exception();
    stop_requested_ = true;
    shutdown_cv_.notify_all();
  }
}

bool Server::turn(Loop& loop) {
  // Read draining_ before taking the completions: once it is set, the
  // scheduler has posted its last one.
  const bool draining = draining_;
  if (loop.polls.readable(kWakeSlot)) wake_.drain();
  if (stop_signalled_.exchange(false)) {
    stop_requested_ = true;
    shutdown_cv_.notify_all();
  }
  take_completions(loop);
  if (draining && !loop.drain_started) {
    loop.drain_started = true;
    loop.drain_grace.arm(kDrainGraceNs);
  }
  const bool grace_over = loop.drain_started && loop.drain_grace.expired();

  while (loop.listener_slot != kNoSlot &&
         loop.polls.readable(loop.listener_slot)) {
    bool out_of_descriptors = false;
    net::Socket socket = listener_->accept(out_of_descriptors);
    if (out_of_descriptors) {
      // The connection stays queued and the listener readable; polling it
      // again at once would spin.
      loop.accept_rest.arm(kAcceptRestNs);
    }
    if (!socket.valid()) break;
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(socket);
    conn->outbox_capacity = options_.outbox_capacity;
    connections_.emplace(next_connection_id_++, std::move(conn));
    connections_accepted_ += 1;
    connections_counter().add(1);
  }
  // The next poll set: the wake descriptor, the listener while accepting
  // (or its rest timer), the drain grace while it runs, and each
  // connection that can take input, has output the socket refused, or
  // waits out a fault's timer.
  loop.next.clear();
  loop.next.add(wake_);
  if (loop.drain_grace.armed()) loop.next.add(loop.drain_grace);
  loop.listener_slot = kNoSlot;
  if (!stop_requested_) {
    if (!loop.accept_rest.expired()) {
      loop.next.add(loop.accept_rest);
    } else {
      loop.listener_slot = loop.next.add(*listener_);
    }
  }
  // A turn's queries are submitted without waking anyone and started
  // together once every connection is handled: a lone query is flushed
  // on this thread, and its answer queued below without a hand-off; a
  // busy turn wakes one worker, which finds the whole turn queued.
  for (auto& [id, c] : connections_) {
    Connection& conn = *c;
    if (!conn.socket.valid()) continue;
    if (draining) conn.eof = true;
    if (!conn.eof && conn.slot != kNoSlot && loop.polls.readable(conn.slot)) {
      const std::optional<std::size_t> n = conn.socket.try_recv(loop.chunk);
      if (!n) {
        conn.eof = true;  // the buffered frames are still answered
      } else {
        conn.in.insert(conn.in.end(), loop.chunk.data(),
                       loop.chunk.data() + *n);
      }
    }
    serve_input(id, conn);
  }
  // Answers already queued go out before an inline flush holds the loop
  // (bench/serve_throughput at 32 connections: 45k q/s without this, 50k
  // with it, medians of 8 runs); the flush's own answers go out below.
  for (auto& [id, c] : connections_) c->flush();
  if (scheduler_.flush_or_wake()) take_completions(loop);
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = *it->second;
    if (conn.socket.valid()) {
      conn.flush();
      if (grace_over && !conn.outbox.empty()) conn.give_up();
      // Graceful close: every request answered and every answer sent.
      if (conn.eof && !conn.held && conn.pending == 0 &&
          conn.outbox.empty()) {
        conn.socket.close();
      }
    }
    conn.slot = kNoSlot;
    if (!conn.socket.valid()) {
      if (conn.pending == 0) {
        merge(closed_clients_[conn.client_id], conn.counts);
        it = connections_.erase(it);
        // A descriptor is free again: cut the listener's rest short.
        if (loop.accept_rest.armed()) loop.accept_rest.arm(1);
        continue;
      }
    } else {
      if (conn.held) loop.next.add(*conn.stall);
      const bool slowed = conn.slow && conn.slow->armed();
      if (slowed && !conn.outbox.empty()) loop.next.add(*conn.slow);
      const bool read = !conn.eof && !conn.held;
      const bool write = !conn.outbox.empty() && !slowed;
      if (read || write) conn.slot = loop.next.add(conn.socket, read, write);
    }
    ++it;
  }
  if (draining && connections_.empty()) return false;
  std::swap(loop.polls, loop.next);
  return true;
}

void Server::serve_input(std::uint64_t id, Connection& conn) {
  std::size_t at = 0;  // bytes of conn.in handled so far
  while (conn.socket.valid() && !waits(conn.stall)) {
    if (conn.held) {
      Request req = std::move(*conn.held);
      conn.held.reset();
      answer(id, conn, std::move(req));
      continue;
    }
    const Decoded frame =
        decode_frame(std::span<const char>(conn.in).subspan(at));
    if (frame.status == DecodeStatus::kNeedMore) break;
    conn.counts.received += 1;
    requests_counter().add(1);
    if (frame.status == DecodeStatus::kBad) {
      // The stream framing is broken; a typed reply tells the client
      // why, then the connection closes once that reply is sent.
      conn.reply(Outcome::kError,
                 encode_error(frame.request_id, frame.code, frame.message));
      conn.eof = true;
      conn.in.clear();
      return;
    }
    at += frame.consumed;

    Request req;
    try {
      req = parse_request(frame);
    } catch (const ProtocolError& e) {
      conn.reply(Outcome::kError,
                 encode_error(frame.request_id, e.code(), e.what()));
      continue;  // payload errors are per-request
    }
    // A kHello adopts its identity *before* the fault checks, so a
    // dropped hello is keyed by the (client_id, incarnation) it announced
    // — a reconnect with a bumped incarnation then draws a fresh
    // decision. (Keyed under the stale identity, every client's first
    // hello would share one key and a firing drop policy could sever
    // hellos forever.)
    if (req.type == MsgType::kHello) {
      conn.client_id = req.client_id;
      conn.incarnation = req.incarnation;
    }
    if (fault::any_armed()) {
      if (auto f = fault::should_fire(kServeReadStallSite,
                                      conn.fault_key(req.request_id))) {
        // A stalled client: this connection handles nothing until the
        // deadline, and nothing else waits for it.
        conn.counts.stall_faults += 1;
        arm_fault_delay(conn.stall, *f);
        conn.held = std::move(req);
        break;
      }
    }
    answer(id, conn, std::move(req));
  }
  if (!conn.socket.valid()) return;  // aborted: its input is gone
  conn.in.erase(conn.in.begin(),
                conn.in.begin() + static_cast<std::ptrdiff_t>(at));
  // After EOF no byte will ever complete a partial frame.
  if (conn.eof && !conn.held) conn.in.clear();
}

void Server::answer(std::uint64_t id, Connection& conn, Request req) {
  if (fault::any_armed() &&
      fault::should_fire(kServeDropSite, conn.fault_key(req.request_id))) {
    conn.counts.dropped += 1;
    conn.abort();
    return;
  }

  switch (req.type) {
    case MsgType::kHello:
      conn.reply(Outcome::kOk,
                 encode_empty_reply(MsgType::kHelloOk, req.request_id));
      return;
    case MsgType::kPing:
      conn.reply(Outcome::kOk,
                 encode_empty_reply(MsgType::kPong, req.request_id));
      return;
    case MsgType::kShutdown:
      conn.reply(Outcome::kOk,
                 encode_empty_reply(MsgType::kBye, req.request_id));
      // wait() observes the flag and stops the server from its own
      // thread; the loop keeps serving until then.
      stop_requested_ = true;
      shutdown_cv_.notify_all();
      return;
    default:
      break;  // query types below
  }

  const bool scalar = req.type == MsgType::kQueryAccuracy ||
                      req.type == MsgType::kQueryPerf;
  const bool accuracy = req.type == MsgType::kQueryAccuracy ||
                        req.type == MsgType::kQueryAccuracyBatch;
  const BucketKey bucket{req.space, accuracy, req.key};

  // The space id parsed as *registered*; it must also be the one this
  // server's benchmark was built over. Answered before any queueing so
  // the typed error is deterministic and immediate.
  if (req.space != bench_.space()) {
    conn.reply(Outcome::kError,
               encode_error(req.request_id, ErrorCode::kUnknownSpace,
                            std::string("this server serves space '") +
                                space_name(bench_.space()) +
                                "', request targeted '" +
                                space_name(req.space) + "'"));
    return;
  }

  // Surrogate presence is a per-request property, answered before any
  // queueing so kNoSurrogate is deterministic and immediate.
  const bool available =
      accuracy ? bench_.has_accuracy() : bench_.has_perf(req.key);
  if (!available) {
    conn.reply(Outcome::kError,
               encode_error(req.request_id, ErrorCode::kNoSurrogate,
                            "no surrogate installed for " + bucket.name()));
    return;
  }

  // The callback runs on a scheduler worker, or on this thread when the
  // turn flushes inline: it encodes the response and hands it to the
  // loop, never touching the connection.
  const std::uint64_t request_id = req.request_id;
  const Admit admitted = scheduler_.submit(
      bucket, std::move(req.archs),
      [this, id, request_id, scalar](std::vector<double> values,
                                     std::string error) {
        if (!error.empty()) {
          post({id, false,
                encode_error(request_id, ErrorCode::kInternal, error)});
        } else {
          post({id, true,
                scalar ? encode_value(request_id, values[0])
                       : encode_values(request_id, values)});
        }
      },
      Wake::kDeferred);
  switch (admitted) {
    case Admit::kOk:
      conn.pending += 1;
      break;
    case Admit::kQueueFull:
      conn.reply(Outcome::kRetryLater,
                 encode_empty_reply(MsgType::kRetryLater, request_id));
      break;
    case Admit::kStopped:
      conn.reply(Outcome::kError, encode_error(request_id,
                                               ErrorCode::kShuttingDown,
                                               "server is draining"));
      break;
  }
}

}  // namespace anb::serve
