// The sanctioned socket TU (see the raw-io lint pass): every raw socket
// system call in the library lives here, mirroring how src/util/io.cpp
// owns file IO. Throws anb::Error with context on unrecoverable failures;
// peer-disconnect conditions surface as values (false / 0-byte reads), not
// exceptions, because a vanishing client is normal server load.

#include "anb/util/net.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "anb/util/error.hpp"

namespace anb::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + ::strerror(errno));
}

/// sockaddr_un for `path`, validating the length limit.
sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ANB_CHECK(path.size() + 1 <= sizeof(addr.sun_path),
            "unix socket path too long: " + path);
  ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// One send(2) with `flags`: the count, 0 when it would block, or
/// nullopt when the peer is gone.
std::optional<std::size_t> send_once(int fd, std::span<const char> bytes,
                                     int flags) {
  for (;;) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the
    // process with SIGPIPE — essential for a daemon.
    const ssize_t n =
        ::send(fd, bytes.data(), bytes.size(), flags | MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno == EPIPE || errno == ECONNRESET || errno == ENOTCONN ||
        errno == EBADF) {
      return std::nullopt;
    }
    throw_errno("send");
  }
}

/// One recv(2) with `flags`: the count, 0 when it would block, or
/// nullopt on EOF or a vanished peer.
std::optional<std::size_t> recv_once(int fd, std::span<char> buf, int flags) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), flags);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) return std::nullopt;  // orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno == ECONNRESET || errno == ENOTCONN || errno == EBADF) {
      return std::nullopt;
    }
    throw_errno("recv");
  }
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  Socket sock(fd);
  const sockaddr_un addr = make_addr(path);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw_errno("connect(" + path + ")");
  return sock;
}

bool Socket::send_all(std::span<const char> bytes) {
  ANB_CHECK(valid(), "send_all on closed socket");
  for (std::size_t sent = 0; sent < bytes.size();) {
    const std::optional<std::size_t> n = send_once(fd_, bytes.subspan(sent), 0);
    if (!n) return false;  // peer gone / locally shut down
    sent += *n;
  }
  return true;
}

std::size_t Socket::recv_some(std::span<char> buf) {
  ANB_CHECK(valid(), "recv_some on closed socket");
  return recv_once(fd_, buf, 0).value_or(0);
}

std::optional<std::size_t> Socket::try_send(std::span<const char> bytes) {
  ANB_CHECK(valid(), "try_send on closed socket");
  return send_once(fd_, bytes, MSG_DONTWAIT);
}

std::optional<std::size_t> Socket::try_recv(std::span<char> buf) {
  ANB_CHECK(valid(), "try_recv on closed socket");
  return recv_once(fd_, buf, MSG_DONTWAIT);
}

void Socket::shutdown_both() {
  if (!valid()) return;
  // Failure is fine (the peer may already be gone); the point is to wake
  // any blocked recv/send.
  ::shutdown(fd_, SHUT_RDWR);
}

void Socket::shutdown_read() {
  if (!valid()) return;
  ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() {
  if (!valid()) return;
  ::shutdown(fd_, SHUT_WR);
}

void Socket::close() {
  if (!valid()) return;
  ::close(fd_);
  fd_ = -1;
}

Listener::Listener(const std::string& path) : path_(path) {
  ANB_CHECK(!path.empty(), "Listener: empty socket path");
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // stale socket file from a crashed server
  const sockaddr_un addr = make_addr(path);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd_, SOMAXCONN) < 0) {
    const int saved = errno;
    ::close(fd_);
    ::unlink(path.c_str());
    fd_ = -1;
    errno = saved;
    throw_errno("listen(" + path + ")");
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

Socket Listener::accept(bool& out_of_descriptors) {
  out_of_descriptors = false;
  for (;;) {
    const int fd =
        ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    // Nothing pending, or the pending client gave up before we got to it.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return Socket();
    }
    if (errno == EMFILE || errno == ENFILE) {
      out_of_descriptors = true;
      return Socket();
    }
    throw_errno("accept");
  }
}

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) throw_errno("eventfd");
}

WakeFd::~WakeFd() { ::close(fd_); }

void WakeFd::notify() noexcept {
  // write(2) alone is async-signal-safe. It cannot block; a counter at its
  // limit (EAGAIN) already holds a wake.
  const int saved = errno;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
  errno = saved;
}

void WakeFd::drain() {
  std::uint64_t count;  // reading resets the counter
  [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof(count));
}

Timer::Timer()
    : fd_(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)) {
  if (fd_ < 0) throw_errno("timerfd_create");
}

Timer::~Timer() { ::close(fd_); }

void Timer::arm(std::int64_t ns) {
  ns = std::max<std::int64_t>(ns, 1);  // a zero expiry would disarm
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  if (::timerfd_settime(fd_, 0, &spec, nullptr) < 0) {
    throw_errno("timerfd_settime");
  }
  armed_ = true;
}

bool Timer::expired() {
  std::uint64_t fired;
  if (armed_ && ::read(fd_, &fired, sizeof(fired)) == sizeof(fired)) {
    armed_ = false;
  }
  return !armed_;
}

PollSet::PollSet() = default;
PollSet::~PollSet() = default;
PollSet::PollSet(PollSet&&) noexcept = default;
PollSet& PollSet::operator=(PollSet&&) noexcept = default;

void PollSet::clear() { fds_.clear(); }

std::size_t PollSet::add_fd(int fd, short events) {
  fds_.push_back(pollfd{fd, events, 0});
  return fds_.size() - 1;
}

std::size_t PollSet::add(const Socket& socket, bool read, bool write) {
  return add_fd(socket.fd_, static_cast<short>((read ? POLLIN : 0) |
                                               (write ? POLLOUT : 0)));
}

std::size_t PollSet::add(const Listener& listener) {
  return add_fd(listener.fd_, POLLIN);
}

std::size_t PollSet::add(const WakeFd& wake) { return add_fd(wake.fd_, POLLIN); }

std::size_t PollSet::add(const Timer& timer) {
  return add_fd(timer.fd_, POLLIN);
}

void PollSet::wait() {
  for (pollfd& p : fds_) p.revents = 0;
  if (::poll(fds_.data(), fds_.size(), -1) < 0 && errno != EINTR) {
    throw_errno("poll");
  }
}

bool PollSet::readable(std::size_t slot) const {
  return (fds_[slot].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) != 0;
}

std::string unique_socket_path(const std::string& tag) {
  // One counter per process keeps concurrent servers (parallel ctest
  // shards, the bench's configurations) from colliding; the pid isolates
  // processes. sun_path is ~108 bytes, so keep it short.
  static std::atomic<unsigned> counter{0};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/tmp/anb-%s-%d-%u.sock", tag.c_str(),
                static_cast<int>(::getpid()),
                counter.fetch_add(1, std::memory_order_relaxed));
  return std::string(buf);
}

}  // namespace anb::net
