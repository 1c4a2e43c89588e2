// The fabric worker: a leased-range shard executor with no merge of its own.
//
// A worker holds the same CampaignSpec as the coordinator (the hello
// handshake proves it: CampaignSpec::spec_hash() + seed + shard count must
// all match, or the coordinator rejects loudly), runs whatever scenario
// ranges it is leased through Campaign::run_shard_record on one warm
// ShardContext, and streams each shard back as its ckpt2 record line. It
// never touches a checkpoint file and never merges — persistence and the
// in-order fold belong to the coordinator, so any number of workers can
// come and go without owning campaign state.
//
// Split sans-I/O style, like the coordinator: WorkerCore is the protocol
// (no socket, clock or shard execution; tests and the fault explorer drive
// it on a fake clock), and Worker::run is its driver.
//
// Crash model: a worker that dies mid-lease simply disappears — the
// coordinator sees EOF, re-leases the uncompleted range, and the replacing
// worker reproduces bit-identical records (shards are pure functions of
// (spec, seed, index)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fabric/transport.hpp"
#include "fabric/wire.hpp"
#include "testbed/campaign.hpp"

namespace acute::fabric {

/// What a WorkerCore asks its driver to do next.
struct WorkerStep {
  enum class Kind : std::uint8_t {
    send,  ///< send `bytes` in one send_all, then sent() or send_failed()
    run,   ///< run shard `shard`, then shard_done() with its ckpt2 line
    read,  ///< read one frame, then receive() it, or closed() at its EOF
    exit,  ///< the coordinator shut the worker down
  };
  Kind kind = Kind::read;
  std::string_view bytes;   ///< send only; valid until the next input
  std::uint64_t shard = 0;  ///< run only
};

/// The worker's protocol state machine: fed coordinator frames, now_ms and
/// finished shard lines, it answers with the next step. Frames queue in one
/// outbox and leave:
///   - the next lease_request, at once when a grant arrives, so the next
///     grant is already buffered when this lease ends;
///   - a heartbeat before a shard, only once lease_timeout_ms / 4 (from
///     hello_ok) has passed since the last send, with the shard_dones
///     queued so far — any frame heartbeats every lease the worker holds;
///   - the rest right before a read, so a lease's shard_dones and its
///     lease_done leave together.
/// Campaign completion is the coordinator's call, made the instant the
/// last shard_done arrives — which may be ours, with more frames still in
/// flight when it sends shutdown and closes. After a failed send the core
/// therefore only reads, past the replies to its requests (a grant or
/// idle): a shutdown turns the failure into a graceful exit, anything else
/// (the coordinator actually died) is a contract violation.
class WorkerCore {
 public:
  /// Queues the hello; grants must fall inside `hello.shard_count`.
  explicit WorkerCore(const HelloBody& hello);

  /// The next step at `now_ms` (idempotent until the next input).
  [[nodiscard]] WorkerStep step(std::uint64_t now_ms);

  /// The last send step's bytes left, at `now_ms`.
  void sent(std::uint64_t now_ms);

  /// The last send step failed: the coordinator closed.
  void send_failed();

  /// One coordinator frame, where step() said read. Contract violation on
  /// a reject, a frame the state does not allow, an undecodable payload or
  /// a grant outside the campaign.
  void receive(const FrameView& frame);

  /// The coordinator's stream ended where step() said read: always a
  /// contract violation — a worker must not idle against a dead one.
  void closed() const;

  /// The ckpt2 line of the shard step() said to run.
  void shard_done(std::string line);

 private:
  enum class State : std::uint8_t { handshake, serving, draining, finished };

  State state_ = State::handshake;
  std::uint64_t shard_count_;
  std::uint64_t cadence_ms_ = 0;
  std::uint64_t last_send_ms_ = 0;
  std::string outbox_;
  bool flush_ = false;    // the outbox leaves before the next shard
  bool checked_ = false;  // the next shard passed its heartbeat check
  std::optional<LeaseGrantBody> lease_;  // the running lease
  std::uint64_t next_ = 0;               // its next shard
};

class Worker {
 public:
  /// `spec` must describe the same campaign as the coordinator's (the
  /// handshake enforces it). Checkpoint/sink settings are ignored — workers
  /// execute, they do not persist.
  explicit Worker(testbed::CampaignSpec spec);

  /// Serves leases over `transport` until the coordinator sends shutdown.
  /// Returns shards run. Contract violation on a torn frame or a handshake
  /// reject — a worker talking to a confused or mismatched coordinator
  /// must die loudly, not idle forever.
  std::size_t run(Transport& transport);

 private:
  testbed::Campaign campaign_;
};

}  // namespace acute::fabric
