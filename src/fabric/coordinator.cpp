#include "fabric/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "report/checkpoint.hpp"
#include "sim/contracts.hpp"

namespace acute::fabric {

using sim::expects;

namespace {

/// The pending shards of `ledger` as LeaseTable's leasable mask.
std::vector<bool> leasable_shards(const testbed::CampaignLedger& ledger,
                                  std::size_t shard_count) {
  std::vector<bool> leasable(shard_count, false);
  for (const std::size_t index : ledger.pending()) leasable[index] = true;
  return leasable;
}

}  // namespace

// ------------------------------------------------------------------- core

CoordinatorCore::CoordinatorCore(const testbed::Campaign& campaign,
                                 CoordinatorConfig config)
    : campaign_(campaign),
      config_(config),
      // O(shards) to compute, so hash once here, not per hello.
      campaign_hash_(campaign.spec().spec_hash()),
      // Restore, validate, compact and classify exactly as Campaign::run
      // does: the pending shards become leasable, restored ones fold from
      // disk. A killed coordinator loses nothing but in-flight leases.
      ledger_(campaign),
      table_(leasable_shards(ledger_, campaign.scenario_count()),
             config.lease) {
  if (ledger_.restored() > 0) {
    log("restored " + std::to_string(ledger_.restored()) +
        " shards from checkpoint");
  }
  ledger_.start();
}

std::size_t CoordinatorCore::connect() {
  conns_.emplace_back();
  return conns_.size() - 1;
}

void CoordinatorCore::receive(std::size_t id, const FrameView& frame,
                              std::uint64_t now_ms) {
  expects(id < conns_.size(), "fabric coordinator: unknown connection");
  now_ms_ = now_ms;
  Conn& conn = conns_[id];
  const bool hello = frame.type == FrameType::hello;
  if (conn.state == Conn::State::closed ||
      (complete() && (conn.state != Conn::State::handshaking || !hello))) {
    return;
  }
  // Decode, parse and validate the worker's bytes first: a failure here is
  // the worker's, and buries it (its work is re-leased). What runs after
  // acts on checked values, so whatever it throws — a checkpoint write, a
  // fold — is the coordinator's own failure and propagates.
  HelloBody body;
  std::uint64_t lease_id = 0;
  std::string_view line;
  report::ShardCheckpoint record;
  try {
    expects(hello == (conn.state == Conn::State::handshaking),
            "fabric coordinator: hello must come first, and only once");
    if (hello) {
      body = decode_hello(frame.payload);
    } else if (frame.type == FrameType::lease_request) {
      expects(frame.payload.empty(),
              "fabric coordinator: lease_request carries a payload");
    } else if (frame.type == FrameType::heartbeat ||
               frame.type == FrameType::lease_done) {
      lease_id = decode_lease_id(frame.payload);
    } else {
      expects(frame.type == FrameType::shard_done,
              "fabric coordinator: unexpected frame from worker");
      line = view_shard_done(frame.payload).record_line;
      expects(report::parse_checkpoint_record(line, record),
              "fabric coordinator: shard_done carried a torn record");
      ledger_.validate(record, "fabric coordinator: shard_done");
    }
  } catch (const sim::ContractViolation& violation) {
    bury(id, std::string("sent a torn or invalid frame: ") + violation.what());
    return;
  }

  // Any frame proves its sender alive: it heartbeats every lease the sender
  // holds, so the lease queued behind a running one cannot expire while the
  // worker streams the first. Only the sender's own leases: one it lost to
  // an expiry was re-leased, and its completions now arrive as harmless
  // duplicates. A heartbeat frame asks for nothing more.
  for (const std::uint64_t held : conn.leases) table_.heartbeat(held, now_ms);
  if (hello) {
    accept(id, body);
  } else if (frame.type == FrameType::lease_request) {
    grant(id);
  } else if (frame.type == FrameType::lease_done) {
    if (conn.leases.erase(lease_id) > 0) table_.finish(lease_id);
  } else if (frame.type == FrameType::shard_done) {
    const std::size_t index = record.summary.info.scenario_index;
    // Checkpoint first (matching the single-process order: durable before
    // merged), every arrival — compaction keeps the last record per index,
    // exactly as it does for a re-run shard. The line parsed, so it is
    // canonical: its bytes are the ones rendering `record` again would
    // write, and they are stored as received.
    if (ledger_.checkpoint() != nullptr) {
      ledger_.checkpoint()->append_line(line, index);
    }
    if (table_.complete(index)) {
      ledger_.submit(index, std::move(record));
      ++stats_.shards_merged;
    } else {
      // The re-lease race: another worker already delivered this index.
      // Determinism makes both copies bit-identical, so dropping the late
      // one loses nothing.
      ++stats_.duplicate_shards;
      log("duplicate completion of shard " + std::to_string(index) +
          " (re-lease race; merged copy wins)");
    }
  }
  if (complete()) release_fleet();
}

void CoordinatorCore::disconnect(std::size_t id, std::string_view cause) {
  expects(id < conns_.size(), "fabric coordinator: unknown connection");
  if (conns_[id].state != Conn::State::closed) bury(id, cause);
}

void CoordinatorCore::tick(std::uint64_t now_ms) {
  now_ms_ = now_ms;
  if (complete()) {
    // receive() releases the fleet as the campaign completes; this covers a
    // checkpoint that restored every shard, where no frame completes it.
    if (!drain_deadline_ms_.has_value()) release_fleet();
    if (now_ms < *drain_deadline_ms_) return;
    for (std::size_t id = 0; id < conns_.size(); ++id) {
      if (conns_[id].state != Conn::State::handshaking) continue;
      log("worker " + std::to_string(id) +
          " never sent its hello; dropping it");
      close(id);
    }
    return;
  }
  // Expired leases (stalled or slow workers) go back to pending with
  // backoff; their holders keep running — late results dedupe.
  for (const Lease& lease : table_.expire(now_ms)) {
    ++stats_.leases_expired;
    log("lease " + std::to_string(lease.id) + " [" +
        std::to_string(lease.begin) + ", " + std::to_string(lease.end) +
        ") expired without heartbeat; re-leasing");
    for (Conn& conn : conns_) conn.leases.erase(lease.id);
  }
  offer_pending();
}

std::vector<Outbound> CoordinatorCore::take_outbox() {
  return std::exchange(outbox_, {});
}

std::optional<std::uint64_t> CoordinatorCore::next_deadline_ms() const {
  return complete() ? drain_deadline_ms_ : table_.next_deadline_ms();
}

bool CoordinatorCore::done() const {
  return complete() &&
         std::none_of(conns_.begin(), conns_.end(), [](const Conn& conn) {
           return conn.state == Conn::State::handshaking;
         });
}

testbed::CampaignReport CoordinatorCore::finish() {
  expects(done(), "fabric coordinator: finish() before the campaign is done");
  testbed::CampaignReport report = ledger_.finish(/*compact=*/true);
  log("campaign complete: " + std::to_string(report.frontier.completed) +
      "/" + std::to_string(campaign_.scenario_count()) + " shards merged, " +
      std::to_string(stats_.leases_granted) + " leases, " +
      std::to_string(stats_.duplicate_shards) + " duplicates");
  return report;
}

void CoordinatorCore::accept(std::size_t id, const HelloBody& hello) {
  std::string why;
  if (hello.protocol != kProtocolVersion) {
    why = "protocol version mismatch";
  } else if (hello.spec_hash != campaign_hash_) {
    why = "campaign spec (grid) hash mismatch";
  } else if (hello.seed != campaign_.spec().seed) {
    why = "campaign seed mismatch";
  } else if (hello.shard_count != campaign_.scenario_count()) {
    why = "shard count mismatch";
  }
  if (!why.empty()) {
    ++stats_.workers_rejected;
    log("REJECTED worker " + std::to_string(id) + ": " + why);
    send(id, FrameType::reject, why);
    close(id);
    return;
  }
  ++stats_.workers_joined;
  log("worker " + std::to_string(id) + " joined");
  send(id, FrameType::hello_ok,
       encode_hello_ok(HelloOkBody{config_.lease.lease_timeout_ms}));
  conns_[id].state = Conn::State::active;
}

void CoordinatorCore::grant(std::size_t id) {
  Conn& conn = conns_[id];
  const std::optional<Lease> lease = table_.grant(now_ms_);
  if (!lease.has_value()) {
    send(id, FrameType::idle);
    conn.state = Conn::State::parked;
    return;
  }
  send(id, FrameType::lease_grant,
       encode_lease_grant(LeaseGrantBody{lease->id, lease->begin, lease->end}));
  conn.leases.insert(lease->id);
  conn.state = Conn::State::active;
  ++stats_.leases_granted;
}

void CoordinatorCore::bury(std::size_t id, std::string_view cause) {
  Conn& conn = conns_[id];
  std::size_t returned = 0;
  for (const std::uint64_t lease_id : conn.leases) {
    const std::size_t before = table_.pending_count();
    table_.revoke(lease_id);
    returned += table_.pending_count() - before;
  }
  if (conn.state != Conn::State::handshaking) ++stats_.workers_died;
  log("worker " + std::to_string(id) + " " + std::string(cause) +
      (returned > 0 ? "; re-leasing " + std::to_string(returned) + " shards"
                    : ""));
  close(id);
  offer_pending();
}

void CoordinatorCore::offer_pending() {
  // Push pending work to parked workers instead of waiting for them to ask
  // again (they block after idle by design). Runs wherever work re-enters
  // pending: no deadline may be left to wake the driver for it.
  for (std::size_t id = 0; id < conns_.size() && table_.pending_count() > 0;
       ++id) {
    if (conns_[id].state == Conn::State::parked) grant(id);
  }
}

void CoordinatorCore::close(std::size_t id) {
  conns_[id].state = Conn::State::closed;
  conns_[id].leases.clear();
  outbox_.push_back(Outbound{Outbound::Kind::close, id, {}, {}});
}

void CoordinatorCore::release_fleet() {
  // Every joined worker gets shutdown (best effort: a worker killed between
  // its last shard and here is indistinguishable from one that left).
  // Handshakes in flight are still answered, hello_ok then shutdown or
  // reject, so the joined/rejected counts and a mismatched worker's loud
  // failure never depend on scheduling; a peer silent for a whole lease
  // timeout past completion is dropped.
  if (!drain_deadline_ms_.has_value()) {
    drain_deadline_ms_ = now_ms_ + config_.lease.lease_timeout_ms;
  }
  for (std::size_t id = 0; id < conns_.size(); ++id) {
    const Conn::State state = conns_[id].state;
    if (state == Conn::State::active || state == Conn::State::parked) {
      send(id, FrameType::shutdown);
      close(id);
    }
  }
}

void CoordinatorCore::send(std::size_t id, FrameType type,
                           std::string payload) {
  outbox_.push_back(
      Outbound{Outbound::Kind::send, id, type, std::move(payload)});
}

void CoordinatorCore::log(const std::string& line) const {
  if (config_.log != nullptr) {
    *config_.log << "fabric coordinator: " << line << std::endl;
  }
}

// ----------------------------------------------------------------- driver

void serve(CoordinatorCore& core, std::size_t conn, FrameReader& reader,
           std::uint64_t now_ms) {
  // Only the reader's calls are caught: a torn frame is the worker's fault,
  // while whatever receive() throws is the coordinator's own and
  // propagates. Each payload stays valid until the next fill.
  std::string torn;
  const auto read = [&torn](auto&& call) {
    try {
      return call();
    } catch (const sim::ContractViolation& violation) {
      torn = std::string("sent a torn or invalid frame: ") + violation.what();
      return false;
    }
  };
  if (!read([&reader] { return reader.fill(); })) {
    return core.disconnect(conn,
                           torn.empty() ? "closed its connection" : torn);
  }
  FrameView frame;
  while (read([&reader, &frame] { return reader.next(frame); })) {
    core.receive(conn, frame, now_ms);
  }
  if (!torn.empty()) core.disconnect(conn, torn);
}

namespace {

/// The driver's end of one connection: its transport and frame buffer.
struct Link {
  explicit Link(std::unique_ptr<Transport> transport_in)
      : transport(std::move(transport_in)), reader(*transport) {}

  std::unique_ptr<Transport> transport;
  FrameReader reader;
  bool writable = true;  // false once a send to the peer failed
};

/// The poll loop: serves `core` until it is done.
void drive(CoordinatorCore& core,
           std::vector<std::unique_ptr<Transport>> workers,
           UnixListener* listener) {
  // By connection number; null once closed.
  std::vector<std::unique_ptr<Link>> links;
  const auto add = [&](std::unique_ptr<Transport> transport) {
    const std::size_t id = core.connect();
    links.resize(id + 1);
    links[id] = std::make_unique<Link>(std::move(transport));
  };
  for (std::unique_ptr<Transport>& transport : workers) {
    add(std::move(transport));
  }

  // Carries out the core's outputs in order, one frame per write_frame. A
  // send fails once the peer is gone, but the frames it sent before it went
  // are still buffered on the read side: the link stops sending and stays
  // polled, so every shard a dying worker finished is served, and the end
  // of its stream buries it.
  const auto flush = [&] {
    for (const Outbound& action : core.take_outbox()) {
      std::unique_ptr<Link>& link = links[action.conn];
      if (link == nullptr) continue;
      if (action.kind == Outbound::Kind::close) {
        link.reset();
      } else if (link->writable) {
        try {
          write_frame(*link->transport, action.type, action.payload);
        } catch (const sim::ContractViolation&) {
          link->writable = false;
        }
      }
    }
  };

  constexpr std::size_t kListener = static_cast<std::size_t>(-1);
  // Reused across iterations: the poll set is rebuilt, not reallocated.
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_conns;
  while (true) {
    core.tick(monotonic_ms());
    flush();
    if (core.done()) return;

    fds.clear();
    fd_conns.clear();
    // Joiners are accepted until the campaign completes.
    if (listener != nullptr && !core.complete()) {
      fds.push_back(pollfd{listener->fd(), POLLIN, 0});
      fd_conns.push_back(kListener);
    }
    for (std::size_t id = 0; id < links.size(); ++id) {
      if (links[id] == nullptr) continue;
      fds.push_back(pollfd{links[id]->transport->fd(), POLLIN, 0});
      fd_conns.push_back(id);
    }
    expects(!fds.empty(),
            "fabric coordinator: every worker is gone (and no listener "
            "remains) with shards still pending");
    int timeout = -1;
    if (const auto deadline = core.next_deadline_ms(); deadline.has_value()) {
      const std::uint64_t now = monotonic_ms();
      timeout = *deadline <= now
                    ? 0
                    : static_cast<int>(std::min<std::uint64_t>(
                          *deadline - now, 60'000));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    expects(ready >= 0 || errno == EINTR, "fabric coordinator: poll failed");
    if (ready <= 0) continue;  // timeout: tick expires leases

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (fd_conns[i] == kListener) {
        add(listener->accept());
      } else if (links[fd_conns[i]] != nullptr) {
        serve(core, fd_conns[i], links[fd_conns[i]]->reader, monotonic_ms());
      }
    }
  }
}

}  // namespace

Coordinator::Coordinator(testbed::CampaignSpec spec, CoordinatorConfig config)
    : campaign_(std::move(spec)), config_(config) {}

testbed::CampaignReport Coordinator::run(
    std::vector<std::unique_ptr<Transport>> workers, UnixListener* listener) {
  CoordinatorCore& core = core_.emplace(campaign_, config_);
  drive(core, std::move(workers), listener);
  return core.finish();
}

const CoordinatorStats& Coordinator::stats() const {
  static const CoordinatorStats kNone;
  return core_.has_value() ? core_->stats() : kNone;
}

}  // namespace acute::fabric
