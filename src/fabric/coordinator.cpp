#include "fabric/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <exception>
#include <set>
#include <utility>

#include "fabric/wire.hpp"
#include "report/checkpoint.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign_ledger.hpp"

namespace acute::fabric {

using sim::expects;

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One connected worker: its transport and frame buffer, handshake progress
/// and the leases it currently holds.
struct Coordinator::Conn {
  Conn(std::unique_ptr<Transport> transport_in, std::size_t id_in)
      : transport(std::move(transport_in)), reader(*transport), id(id_in) {}

  std::unique_ptr<Transport> transport;
  FrameReader reader;
  enum class State { handshaking, active, parked } state = State::handshaking;
  std::set<std::uint64_t> leases;
  std::size_t id;  // stable worker number, for the log
  bool dead = false;
};

Coordinator::Coordinator(testbed::CampaignSpec spec, CoordinatorConfig config)
    : campaign_(std::move(spec)), config_(config) {}

testbed::CampaignReport Coordinator::run(
    std::vector<std::unique_ptr<Transport>> workers, UnixListener* listener) {
  const testbed::CampaignSpec& spec = campaign_.spec();
  const std::size_t shard_count = campaign_.scenario_count();
  // O(shards) to compute, so hash once here, not per hello.
  const std::uint64_t campaign_hash = spec.spec_hash();
  auto log = [this](const std::string& line) {
    if (config_.log != nullptr) {
      *config_.log << "fabric coordinator: " << line << std::endl;
    }
  };

  // Restore, validate, compact and classify exactly as Campaign::run does:
  // the pending shards become leasable, restored ones fold from disk. A
  // killed coordinator loses nothing but in-flight leases.
  testbed::CampaignLedger ledger(campaign_);
  if (ledger.restored() > 0) {
    log("restored " + std::to_string(ledger.restored()) +
        " shards from checkpoint");
  }
  std::vector<bool> leasable(shard_count, false);
  for (const std::size_t index : ledger.pending()) leasable[index] = true;
  LeaseTable table(std::move(leasable), config_.lease);
  ledger.start();

  std::vector<std::unique_ptr<Conn>> conns;
  std::size_t next_worker_id = 0;
  for (std::unique_ptr<Transport>& transport : workers) {
    conns.push_back(std::make_unique<Conn>(std::move(transport),
                                           next_worker_id++));
  }

  // Grants one lease (or parks the worker) — the only way work leaves the
  // table. Throws whatever the transport throws; callers route that to the
  // death path.
  auto try_grant = [&](Conn& conn) {
    const std::optional<Lease> lease = table.grant(now_ms());
    if (!lease.has_value()) {
      write_frame(*conn.transport, FrameType::idle);
      conn.state = Conn::State::parked;
      return;
    }
    LeaseGrantBody body{lease->id, lease->begin, lease->end};
    try {
      write_frame(*conn.transport, FrameType::lease_grant,
                  encode_lease_grant(body));
    } catch (...) {
      // The worker died between asking and receiving: the grant never
      // reached anyone, so reclaim it NOW instead of waiting out a
      // deadline nobody will ever heartbeat.
      table.revoke(lease->id);
      log("worker " + std::to_string(conn.id) +
          " died before receiving lease " + std::to_string(lease->id) +
          "; re-leasing [" + std::to_string(lease->begin) + ", " +
          std::to_string(lease->end) + ")");
      throw;
    }
    conn.leases.insert(lease->id);
    conn.state = Conn::State::active;
    ++stats_.leases_granted;
  };

  auto bury = [&](Conn& conn, const char* cause) {
    conn.dead = true;
    std::size_t returned = 0;
    for (const std::uint64_t id : conn.leases) {
      const std::size_t before = table.pending_count();
      table.revoke(id);
      returned += table.pending_count() - before;
    }
    const bool had_leases = !conn.leases.empty();
    conn.leases.clear();
    if (conn.state != Conn::State::handshaking || had_leases) {
      ++stats_.workers_died;
    }
    log("worker " + std::to_string(conn.id) + " " + cause +
        (returned > 0
             ? "; re-leasing " + std::to_string(returned) + " shards"
             : ""));
  };

  // Handles one frame from `conn`; throws on a malformed one (the caller
  // buries the worker).
  auto handle_frame = [&](Conn& conn, const FrameView& frame) {
    switch (frame.type) {
      case FrameType::hello: {
        const HelloBody hello = decode_hello(frame.payload);
        std::string why;
        if (hello.protocol != kProtocolVersion) {
          why = "protocol version mismatch";
        } else if (hello.spec_hash != campaign_hash) {
          why = "campaign spec (grid) hash mismatch";
        } else if (hello.seed != spec.seed) {
          why = "campaign seed mismatch";
        } else if (hello.shard_count != shard_count) {
          why = "shard count mismatch";
        }
        if (!why.empty()) {
          ++stats_.workers_rejected;
          log("REJECTED worker " + std::to_string(conn.id) + ": " + why);
          write_frame(*conn.transport, FrameType::reject, why);
          conn.dead = true;
          return;
        }
        ++stats_.workers_joined;
        log("worker " + std::to_string(conn.id) + " joined");
        write_frame(*conn.transport, FrameType::hello_ok);
        conn.state = Conn::State::active;
        break;
      }
      case FrameType::lease_request:
        expects(conn.state == Conn::State::active,
                "fabric coordinator: lease_request before handshake");
        try_grant(conn);
        break;
      case FrameType::heartbeat:
        // False (unknown lease) means the lease already expired and was
        // re-leased; the stalled worker's completions arrive as harmless
        // duplicates, so nothing to do here.
        (void)table.heartbeat(decode_lease_id(frame.payload), now_ms());
        break;
      case FrameType::shard_done: {
        const ShardDoneView done = view_shard_done(frame.payload);
        report::ShardCheckpoint record;
        expects(report::parse_checkpoint_record(done.record_line, record),
                "fabric coordinator: shard_done carried a torn record");
        ledger.validate(record, "fabric coordinator: shard_done");
        const std::size_t index = record.summary.info.scenario_index;
        // Checkpoint first (matching the single-process order: durable
        // before merged), every arrival — compaction's last-wins rule
        // collapses duplicates exactly as it does for a re-run shard. The
        // line parsed, so it is canonical: its bytes are the ones rendering
        // `record` again would write, and they are stored as received.
        if (ledger.checkpoint() != nullptr) {
          ledger.checkpoint()->append_line(done.record_line, index);
        }
        if (table.complete(index)) {
          ledger.submit(index, std::move(record));
          ++stats_.shards_merged;
        } else {
          // The re-lease race: another worker already delivered this index.
          // Determinism makes both copies bit-identical, so dropping the
          // late one loses nothing.
          ++stats_.duplicate_shards;
          log("duplicate completion of shard " + std::to_string(index) +
              " (re-lease race; merged copy wins)");
        }
        break;
      }
      case FrameType::lease_done: {
        const std::uint64_t lease_id = decode_lease_id(frame.payload);
        table.finish(lease_id);
        conn.leases.erase(lease_id);
        break;
      }
      default:
        expects(false, "fabric coordinator: unexpected frame from worker");
    }
  };

  // One wakeup of `conn`: one recv, then every complete frame it buffered
  // while `more()` holds. A torn or invalid frame buries the worker, loudly:
  // that worker is compromised, the campaign is not, and its work is
  // re-leased.
  auto serve = [&](Conn& conn, auto&& more) {
    try {
      if (!conn.reader.fill()) {
        bury(conn, "closed its connection");
        return;
      }
      FrameView frame;
      while (!conn.dead && more() && conn.reader.next(frame)) {
        handle_frame(conn, frame);
      }
    } catch (const sim::ContractViolation& violation) {
      log(std::string("worker ") + std::to_string(conn.id) +
          " sent a torn or invalid frame: " + violation.what());
      bury(conn, "is being dropped after a torn frame");
    }
  };

  // Reused across iterations: the poll set is rebuilt, not reallocated.
  std::vector<pollfd> fds;
  std::vector<Conn*> fd_conns;
  while (!table.all_complete()) {
    // Expired leases (stalled or slow workers) go back to pending with
    // backoff; their holders keep running — late results dedupe.
    for (const Lease& lease : table.expire(now_ms())) {
      ++stats_.leases_expired;
      log("lease " + std::to_string(lease.id) + " [" +
          std::to_string(lease.begin) + ", " + std::to_string(lease.end) +
          ") expired without heartbeat; re-leasing");
      for (std::unique_ptr<Conn>& conn : conns) conn->leases.erase(lease.id);
    }

    // Push re-queued work to parked workers instead of waiting for them to
    // ask again (they block after idle by design).
    for (std::unique_ptr<Conn>& conn : conns) {
      if (conn->dead || conn->state != Conn::State::parked) continue;
      if (table.pending_count() == 0) break;
      try {
        try_grant(*conn);
      } catch (const sim::ContractViolation&) {
        bury(*conn, "died while being granted a lease");
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& conn) {
                                 return conn->dead;
                               }),
                conns.end());
    if (table.all_complete()) break;
    expects(!conns.empty() || listener != nullptr,
            "fabric coordinator: every worker is gone (and no listener "
            "remains) with shards still pending");

    fds.clear();
    fd_conns.clear();
    if (listener != nullptr) {
      fds.push_back(pollfd{listener->fd(), POLLIN, 0});
      fd_conns.push_back(nullptr);
    }
    for (std::unique_ptr<Conn>& conn : conns) {
      fds.push_back(pollfd{conn->transport->fd(), POLLIN, 0});
      fd_conns.push_back(conn.get());
    }
    int timeout = -1;
    if (const auto deadline = table.next_deadline_ms(); deadline.has_value()) {
      const std::uint64_t now = now_ms();
      timeout = *deadline <= now
                    ? 0
                    : static_cast<int>(std::min<std::uint64_t>(
                          *deadline - now, 60'000));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    expects(ready >= 0 || errno == EINTR, "fabric coordinator: poll failed");
    if (ready <= 0) continue;  // timeout: loop to expire leases

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (fd_conns[i] == nullptr) {
        conns.push_back(
            std::make_unique<Conn>(listener->accept(), next_worker_id++));
        continue;
      }
      Conn& conn = *fd_conns[i];
      if (conn.dead) continue;
      serve(conn, [&] { return !table.all_complete(); });
      if (table.all_complete()) break;
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& conn) {
                                 return conn->dead;
                               }),
                conns.end());
  }

  // Answer every handshake still in flight before shutting down: a worker
  // that connected while the rest of the fleet finished the campaign still
  // gets its hello_ok or reject, so the joined/rejected counts and a
  // mismatched worker's loud failure never depend on scheduling. A peer
  // that stays silent for a whole lease timeout is dropped.
  const std::uint64_t handshake_deadline =
      now_ms() + config_.lease.lease_timeout_ms;
  for (std::unique_ptr<Conn>& conn : conns) {
    while (!conn->dead && conn->state == Conn::State::handshaking) {
      const std::uint64_t now = now_ms();
      pollfd fd{conn->transport->fd(), POLLIN, 0};
      const int ready = ::poll(
          &fd, 1,
          now >= handshake_deadline
              ? 0
              : static_cast<int>(std::min<std::uint64_t>(
                    handshake_deadline - now, 60'000)));
      expects(ready >= 0 || errno == EINTR, "fabric coordinator: poll failed");
      if (ready < 0) continue;
      if (ready == 0) {
        log("worker " + std::to_string(conn->id) +
            " never sent its hello; dropping it");
        break;
      }
      serve(*conn, [&] { return conn->state == Conn::State::handshaking; });
    }
  }

  // Campaign complete: release the fleet (best effort — a worker killed
  // between its last shard and here is indistinguishable from one that
  // left) and seal the merge + checkpoint.
  for (std::unique_ptr<Conn>& conn : conns) {
    if (conn->dead) continue;  // rejected during the handshake drain
    try {
      write_frame(*conn->transport, FrameType::shutdown);
    } catch (const sim::ContractViolation&) {
      // Already gone; the work is done, nothing to re-lease.
    }
  }
  testbed::CampaignReport report = ledger.finish(/*compact=*/true);
  log("campaign complete: " + std::to_string(report.frontier.completed) +
      "/" + std::to_string(shard_count) + " shards merged, " +
      std::to_string(stats_.leases_granted) + " leases, " +
      std::to_string(stats_.duplicate_shards) + " duplicates");
  return report;
}

}  // namespace acute::fabric
