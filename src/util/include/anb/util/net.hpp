#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

// Local-socket wrapper for the serving layer. Like file IO (anb/util/io.hpp),
// raw socket system calls live in exactly one TU — src/util/net.cpp, the
// sanctioned socket TU of the anb_lint `raw-io` pass — so EINTR retries,
// partial send/recv handling, SIGPIPE suppression, and shutdown semantics
// are implemented once. Everything above (the anb::serve protocol layer,
// tools, benches) talks in whole byte spans against this interface.
//
// Only AF_UNIX stream sockets are offered: the benchmark server is a local
// daemon (one warm process amortizing mmap'd artifacts across searchers on
// the same host), and unix sockets keep the test matrix hermetic — no port
// allocation, no firewall interaction, cleanup is an unlink.

struct pollfd;  // <poll.h>, included only by src/util/net.cpp

namespace anb::net {

/// A connected stream socket (RAII over the file descriptor). Movable,
/// not copyable; the destructor closes the descriptor. All operations
/// throw anb::Error on unrecoverable failures and retry EINTR internally.
class Socket {
 public:
  Socket() = default;
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connect to the unix-domain listener at `path`.
  static Socket connect_unix(const std::string& path);

  bool valid() const { return fd_ >= 0; }

  /// Send the whole span (looping over partial writes). Returns false —
  /// without throwing — when the peer is gone (EPIPE/ECONNRESET) or the
  /// socket was shut down; those are normal client-disconnect events for
  /// a server, not errors.
  bool send_all(std::span<const char> bytes);

  /// Receive up to `buf.size()` bytes; returns the count, or 0 on orderly
  /// peer shutdown / local shutdown(). Blocks until at least one byte is
  /// available.
  std::size_t recv_some(std::span<char> buf);

  /// Nonblocking send and receive for the server's I/O loop: the count
  /// moved now (0 when the call would block), or nullopt once the peer is
  /// gone or, for try_recv, has finished sending.
  std::optional<std::size_t> try_send(std::span<const char> bytes);
  std::optional<std::size_t> try_recv(std::span<char> buf);

  /// Wake any thread blocked in recv/send on this socket and make every
  /// later operation fail/EOF. Safe to call from another thread while a
  /// recv is in flight (tests use it as a read deadline). Idempotent;
  /// no-op on an invalid socket.
  void shutdown_both();

  /// Half-close: EOF the receive side only, leaving outbound data
  /// deliverable.
  void shutdown_read();

  /// Half-close the send side: the peer sees EOF after consuming what was
  /// already sent, while this end can keep receiving (how the fuzz tests
  /// say "no more bytes coming" and still read the server's verdict).
  void shutdown_write();

  /// Close the descriptor now (also idempotent).
  void close();

 private:
  explicit Socket(int fd) : fd_(fd) {}
  friend class Listener;
  friend class PollSet;

  int fd_ = -1;
};

/// A bound, listening unix-domain socket. Binds at construction (unlinking
/// any stale socket file at `path` first) and unlinks the path again on
/// destruction.
class Listener {
 public:
  explicit Listener(const std::string& path);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept a queued connection without blocking, as a nonblocking
  /// socket; invalid when none is queued. Out of descriptors
  /// (EMFILE/ENFILE), it also sets `out_of_descriptors`: the connection
  /// stays queued, so the caller should rest before polling again.
  Socket accept(bool& out_of_descriptors);

 private:
  friend class PollSet;

  std::string path_;
  int fd_ = -1;
};

/// An eventfd that wakes a PollSet::wait() from another thread or from a
/// signal handler: notify() is async-signal-safe, and the wakes posted
/// before a drain() count as one.
class WakeFd {
 public:
  WakeFd();
  ~WakeFd();
  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  void notify() noexcept;
  void drain();

 private:
  friend class PollSet;

  int fd_ = -1;
};

/// A one-shot monotonic timer (timerfd) for deadlines in a poll loop,
/// which then needs no clock: add it to a PollSet to wake when it fires.
class Timer {
 public:
  Timer();
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire `ns` from now (at least 1 ns), replacing any earlier expiry.
  void arm(std::int64_t ns);
  /// Armed and not yet seen to fire by expired().
  bool armed() const { return armed_; }
  /// False while armed and not yet fired; never blocks.
  bool expired();

 private:
  friend class PollSet;

  int fd_ = -1;
  bool armed_ = false;
};

/// A poll(2) set, rebuilt by its owner every round: add() returns a slot;
/// wait() blocks until a slot is ready (a signal ends it early);
/// readable() then says whether a read or accept on the slot will not
/// block (data, EOF, a queued connection, a fired timer or an error).
class PollSet {
 public:
  PollSet();
  ~PollSet();
  PollSet(PollSet&&) noexcept;
  PollSet& operator=(PollSet&&) noexcept;

  void clear();
  std::size_t add(const Socket& socket, bool read, bool write);
  std::size_t add(const Listener& listener);
  std::size_t add(const WakeFd& wake);
  std::size_t add(const Timer& timer);
  void wait();
  bool readable(std::size_t slot) const;

 private:
  std::size_t add_fd(int fd, short events);

  std::vector<pollfd> fds_;
};

/// A fresh, process-unique socket path under the system temp directory
/// (for tests and benches that stand up throwaway servers). The file is
/// not created; the caller passes the path to Listener.
std::string unique_socket_path(const std::string& tag);

}  // namespace anb::net
