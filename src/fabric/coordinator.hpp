// The fabric coordinator: owner of the shard space, the leases, the merge
// and the checkpoint — everything except shard execution itself.
//
// One coordinator serves any number of fabric::Worker peers. Each worker
// proves it holds the same campaign (hello: protocol, spec_hash, seed,
// shard count — any mismatch is rejected loudly), then pulls leases of
// contiguous scenario-index ranges. Completed shards stream back as ckpt2
// record lines; the coordinator validates each against the spec (index
// range, Rng(S).fork(i) seed, Campaign::shard_hash), appends it to its
// own checkpoint file, and folds the first completion per index in
// ascending scenario order — all through the same testbed::CampaignLedger
// Campaign::run uses — so the merged digests are bit-identical to a
// single-process Campaign::run for any worker count, lease batch size and
// kill/re-lease schedule.
//
// Two layers, split sans-I/O style:
//   CoordinatorCore — the protocol state machine. No socket, no poll, no
//     clock: it is fed connect(), receive(conn, frame, now_ms),
//     disconnect(conn, cause) and tick(now_ms), and answers with an ordered
//     outbox of {conn, type, payload} sends and {conn} closes, plus
//     next_deadline_ms(), done() and finish(). It owns the LeaseTable, the
//     CampaignLedger (and so the checkpoint file), every connection's
//     handshake and lease state, and CoordinatorStats. Tests drive it
//     directly, with scripted workers and a fake clock.
//   Coordinator::run — the driver: one poll loop that accepts, serves
//     each readable connection (serve(): fill its FrameReader, feed the
//     frames in, turn a clean EOF or a torn frame into disconnect()),
//     writes each outbound frame with one write_frame and closes what the
//     core closes. A failed send only stops sends to that peer: what it
//     sent before it died is still served, and its EOF follows.
//
// Failure matrix (docs/fabric.md):
//   worker death (EOF)               → revoke its leases, log, re-lease
//   torn or invalid frame            → the same, loudly: only decoding,
//                                      parsing or validating a worker's
//                                      bytes buries that worker
//   lease expiry (a worker silent    → expire its leases, re-lease with
//     past the deadline: stalled)      backoff; the stalled worker's late
//                                      completions become duplicates
//   duplicate completion             → first merge wins (bytes identical by
//                                      determinism); the checkpoint keeps
//                                      every append and compaction keeps
//                                      the last
//   hash mismatch at hello           → reject frame + close, never leased
//   checkpoint write / fold failure  → the coordinator's own: no worker is
//                                      blamed, Coordinator::run throws it
//   coordinator death                → its checkpoint file holds every
//                                      completed shard; the next run
//                                      restores, compacts and leases only
//                                      the remainder
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/lease.hpp"
#include "fabric/transport.hpp"
#include "fabric/wire.hpp"
#include "testbed/campaign.hpp"
#include "testbed/campaign_ledger.hpp"

namespace acute::fabric {

struct CoordinatorConfig {
  /// Lease sizing and expiry policy (see LeaseConfig).
  LeaseConfig lease;
  /// Loud-event log (worker joins/deaths, rejects, re-leases); nullptr
  /// silences it. The CI smoke job greps this output.
  std::ostream* log = nullptr;
};

/// Observability counters for benches, tests and the CLI summary.
struct CoordinatorStats {
  std::size_t workers_joined = 0;
  std::size_t workers_died = 0;    ///< EOF or torn frame with leases held
  std::size_t workers_rejected = 0;
  std::size_t leases_granted = 0;  ///< one lease_grant round-trip each
  std::size_t leases_expired = 0;  ///< heartbeat deadline passed
  std::size_t shards_merged = 0;   ///< first completions folded
  std::size_t duplicate_shards = 0;
};

/// One thing the core asks its driver to do, in order.
struct Outbound {
  enum class Kind : std::uint8_t { send, close };
  Kind kind = Kind::send;
  std::size_t conn = 0;
  FrameType type = FrameType::hello;  ///< send only
  std::string payload;                ///< send only
};

/// The coordinator's protocol state machine (see the file comment). Not
/// thread-safe; one driver feeds it.
class CoordinatorCore {
 public:
  /// Restores, validates, compacts and classifies the checkpoint exactly as
  /// Campaign::run does, then opens the fold. `campaign` must outlive the
  /// core.
  CoordinatorCore(const testbed::Campaign& campaign, CoordinatorConfig config);

  /// A new peer; returns its connection number (the log's "worker N").
  /// It must say hello before anything else.
  std::size_t connect();

  /// One frame from `conn`. A frame that does not decode, parse or
  /// validate buries its sender (leases revoked, connection closed); a
  /// failure to append or fold is the coordinator's own and propagates.
  /// Frames for a closed connection are ignored, and so is every frame
  /// after the campaign completes except a pending handshake's hello.
  void receive(std::size_t conn, const FrameView& frame, std::uint64_t now_ms);

  /// `conn` is gone (EOF, failed send or torn bytes; `cause` completes the
  /// log line "worker N <cause>"): its leases re-enter pending at once and
  /// are pushed to parked workers at once.
  void disconnect(std::size_t conn, std::string_view cause);

  /// Expires overdue leases and pushes pending work to parked workers;
  /// after completion, drops handshakes still silent at their deadline.
  void tick(std::uint64_t now_ms);

  /// Drains the outputs queued since the last call, in order.
  [[nodiscard]] std::vector<Outbound> take_outbox();

  /// When tick() next has work: the soonest lease deadline, or the
  /// handshake drain's deadline once the campaign is complete.
  [[nodiscard]] std::optional<std::uint64_t> next_deadline_ms() const;

  /// Every leasable shard is merged.
  [[nodiscard]] bool complete() const { return table_.all_complete(); }

  /// Complete, and every handshake answered or dropped: finish() next.
  [[nodiscard]] bool done() const;

  /// Seals the fold and compacts the checkpoint; call once, when done().
  [[nodiscard]] testbed::CampaignReport finish();

  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }

 private:
  struct Conn {
    enum class State { handshaking, active, parked, closed };
    State state = State::handshaking;
    std::set<std::uint64_t> leases;
  };

  void accept(std::size_t id, const HelloBody& hello);
  void grant(std::size_t id);
  void bury(std::size_t id, std::string_view cause);
  void offer_pending();
  void close(std::size_t id);
  void release_fleet();
  void send(std::size_t id, FrameType type, std::string payload = {});
  void log(const std::string& line) const;

  const testbed::Campaign& campaign_;
  CoordinatorConfig config_;
  std::uint64_t campaign_hash_;
  testbed::CampaignLedger ledger_;
  LeaseTable table_;
  std::vector<Conn> conns_;  // by connection number
  std::vector<Outbound> outbox_;
  CoordinatorStats stats_;
  // The latest time fed in by receive() or tick(); grants and deadlines
  // that disconnect() causes are stamped with it.
  std::uint64_t now_ms_ = 0;
  // Set once the campaign completes: when still-silent handshakes drop.
  std::optional<std::uint64_t> drain_deadline_ms_;
};

/// One wakeup of the driver on connection `conn`: one fill() of its
/// reader, then every complete frame that fill buffered into `core`. A
/// clean end-of-stream or a torn frame buries the worker through
/// disconnect(), after the frames before it; whatever receive() throws is
/// the coordinator's own and propagates. Coordinator::run serves each
/// readable connection with it, and tests serve in-memory ones.
void serve(CoordinatorCore& core, std::size_t conn, FrameReader& reader,
           std::uint64_t now_ms);

class Coordinator {
 public:
  /// `spec` is the campaign being distributed. checkpoint_path, max_shards
  /// and seed behave exactly as in Campaign::run: both run the same
  /// testbed::CampaignLedger (restore, validate, compact, classify, fold).
  Coordinator(testbed::CampaignSpec spec, CoordinatorConfig config = {});

  /// Serves the campaign to completion: `workers` are already-connected
  /// transports (pipe mode / forked children); `listener`, when non-null,
  /// accepts additional worker processes until the campaign completes.
  /// Returns the merged report (digests + totals).
  /// Contract violation when every worker is gone, none can arrive and
  /// shards are still pending; a checkpoint write or fold failure is thrown
  /// as it is.
  [[nodiscard]] testbed::CampaignReport run(
      std::vector<std::unique_ptr<Transport>> workers,
      UnixListener* listener = nullptr);

  /// The latest run's counters (all zero before the first run).
  [[nodiscard]] const CoordinatorStats& stats() const;

 private:
  testbed::Campaign campaign_;
  CoordinatorConfig config_;
  std::optional<CoordinatorCore> core_;  // the latest run's
};

}  // namespace acute::fabric
