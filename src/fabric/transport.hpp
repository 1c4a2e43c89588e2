// Byte transports for the campaign fabric: how coordinator and worker talk.
//
// The wire codec (fabric/wire.hpp) is transport-agnostic: anything that can
// move ordered bytes and report end-of-stream carries the protocol. This
// file provides the local backends — a socketpair "pipe" transport for
// in-process tests and forked workers, and a Unix-domain listener for
// separate coordinator/worker processes — behind one Transport interface so
// a TCP backend can slot in without touching the protocol or the fabric
// logic above it.
//
// Failure surface: send/recv on a peer that died report through the normal
// return/throw paths (sends use MSG_NOSIGNAL, so a dead peer can never
// SIGPIPE-kill the process). A close shows up as recv_some() == 0, also
// when the peer closed with bytes unread (a connection reset); the frame
// layer decides whether that EOF is graceful (between frames) or torn
// (inside one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace acute::fabric {

/// An ordered byte stream to one peer. Implementations own their endpoint
/// and release it on destruction.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Writes all `size` bytes (looping over short writes). Contract
  /// violation when the peer is gone — the caller treats that as the peer's
  /// death, never as data loss.
  virtual void send_all(const void* data, std::size_t size) = 0;

  /// Reads up to `size` bytes, blocking until at least one arrives; returns
  /// the count read, 0 on end-of-stream (peer closed or reset).
  virtual std::size_t recv_some(void* data, std::size_t size) = 0;

  /// The pollable descriptor (coordinator multiplexing); -1 when the
  /// backend has none.
  [[nodiscard]] virtual int fd() const = 0;
};

/// Transport over an owned socket descriptor (socketpair or Unix socket).
class FdTransport final : public Transport {
 public:
  /// Takes ownership of `fd` (closed on destruction).
  explicit FdTransport(int fd);
  ~FdTransport() override;

  void send_all(const void* data, std::size_t size) override;
  std::size_t recv_some(void* data, std::size_t size) override;
  [[nodiscard]] int fd() const override { return fd_; }

 private:
  int fd_;
};

/// A connected local pair — the "pipe transport": first element for the
/// coordinator side, second for the worker (the order is a convention, the
/// two ends are symmetric). Survives fork(): hand one end to the child and
/// close it in the parent (FdTransport's destructor does) for the classic
/// forked-worker topology.
[[nodiscard]] std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
transport_pair();

/// Unix-domain listener for separate coordinator/worker processes. Binds
/// and listens on construction (replacing a stale socket file from a
/// previous run), unlinks the path on destruction.
class UnixListener {
 public:
  explicit UnixListener(std::string path);
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Accepts one connection (blocking).
  [[nodiscard]] std::unique_ptr<Transport> accept();

  /// The listening descriptor (poll for acceptability).
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_;
};

/// Connects to a UnixListener's path; retries briefly while the coordinator
/// is still binding (worker processes often start first in scripts).
[[nodiscard]] std::unique_ptr<Transport> unix_connect(const std::string& path);

/// The drivers' clock: steady milliseconds, for lease deadlines and the
/// worker's send cadence.
[[nodiscard]] std::uint64_t monotonic_ms();

}  // namespace acute::fabric
