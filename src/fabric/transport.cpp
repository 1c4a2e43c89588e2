#include "fabric/transport.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "sim/contracts.hpp"

namespace acute::fabric {

using sim::expects;

FdTransport::FdTransport(int fd) : fd_(fd) {
  expects(fd >= 0, "FdTransport requires a valid descriptor");
}

FdTransport::~FdTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void FdTransport::send_all(const void* data, std::size_t size) {
  const char* bytes = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE here instead of a process-wide
    // SIGPIPE — the coordinator must outlive any number of worker deaths.
    const ssize_t sent = ::send(fd_, bytes, size, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    expects(sent > 0, "fabric transport: peer closed during send");
    bytes += sent;
    size -= static_cast<std::size_t>(sent);
  }
}

std::size_t FdTransport::recv_some(void* data, std::size_t size) {
  while (true) {
    const ssize_t got = ::recv(fd_, data, size, 0);
    if (got < 0 && errno == EINTR) continue;
    // A peer that closes with bytes unread (a worker killed with the next
    // grant queued) resets the stream once everything it sent has been
    // read: that is its end-of-stream, not a failure of ours.
    if (got < 0 && errno == ECONNRESET) return 0;
    expects(got >= 0, "fabric transport: recv failed");
    return static_cast<std::size_t>(got);
  }
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
transport_pair() {
  int fds[2];
  expects(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
          "fabric transport: socketpair failed");
  return {std::make_unique<FdTransport>(fds[0]),
          std::make_unique<FdTransport>(fds[1])};
}

UnixListener::UnixListener(std::string path) : path_(std::move(path)) {
  expects(!path_.empty() && path_.size() < sizeof(sockaddr_un{}.sun_path),
          "fabric listener: socket path empty or too long");
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  expects(fd_ >= 0, "fabric listener: socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path_.c_str());  // replace a stale socket from a previous run
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd_, 64) != 0) {
    ::close(fd_);
    expects(false, "fabric listener: bind/listen failed");
  }
}

UnixListener::~UnixListener() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

std::unique_ptr<Transport> UnixListener::accept() {
  while (true) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0 && errno == EINTR) continue;
    expects(conn >= 0, "fabric listener: accept failed");
    return std::make_unique<FdTransport>(conn);
  }
}

std::unique_ptr<Transport> unix_connect(const std::string& path) {
  expects(!path.empty() && path.size() < sizeof(sockaddr_un{}.sun_path),
          "fabric connect: socket path empty or too long");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // Brief retry window: scripts frequently launch workers before the
  // coordinator has bound its socket.
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    expects(fd >= 0, "fabric connect: socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return std::make_unique<FdTransport>(fd);
    }
    ::close(fd);
    expects(attempt < 100, "fabric connect: coordinator socket never came up");
    ::usleep(100 * 1000);
  }
}

std::uint64_t monotonic_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace acute::fabric
