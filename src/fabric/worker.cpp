#include "fabric/worker.hpp"

#include <cstddef>
#include <string>
#include <utility>

#include "report/checkpoint.hpp"
#include "sim/contracts.hpp"

namespace acute::fabric {

using sim::expects;

// ------------------------------------------------------------------- core

WorkerCore::WorkerCore(const HelloBody& hello)
    : shard_count_(hello.shard_count) {
  append_frame(outbox_, FrameType::hello, encode_hello(hello));
}

WorkerStep WorkerCore::step(std::uint64_t now_ms) {
  if (state_ == State::finished) return {WorkerStep::Kind::exit, {}, 0};
  if (state_ == State::draining) return {WorkerStep::Kind::read, {}, 0};
  if (lease_.has_value() && !flush_) {
    if (!checked_) {
      // Once before each shard: a heartbeat if the cadence has passed.
      checked_ = true;
      if (now_ms >= last_send_ms_ + cadence_ms_) {
        append_frame(outbox_, FrameType::heartbeat,
                     encode_lease_id(lease_->lease_id));
        flush_ = true;
      }
    }
    if (!flush_) return {WorkerStep::Kind::run, {}, next_};
  }
  if (!outbox_.empty()) return {WorkerStep::Kind::send, outbox_, 0};
  return {WorkerStep::Kind::read, {}, 0};
}

void WorkerCore::sent(std::uint64_t now_ms) {
  outbox_.clear();
  flush_ = false;
  last_send_ms_ = now_ms;
}

void WorkerCore::send_failed() {
  state_ = State::draining;
  outbox_.clear();
  lease_.reset();
}

void WorkerCore::receive(const FrameView& frame) {
  expects(state_ != State::finished && outbox_.empty() && !lease_.has_value(),
          "fabric worker: a frame arrived where no read was due");
  // As the coordinator refuses a lease_request with a payload.
  expects(frame.payload.empty() || (frame.type != FrameType::idle &&
                                    frame.type != FrameType::shutdown),
          "fabric worker: idle or shutdown carries a payload");
  switch (state_) {
    case State::handshake:
      if (frame.type == FrameType::reject) {
        expects(false, ("fabric worker: coordinator rejected handshake: " +
                        std::string(frame.payload))
                           .c_str());
      }
      if (frame.type == FrameType::shutdown) {
        state_ = State::finished;  // nothing to do
        return;
      }
      expects(frame.type == FrameType::hello_ok,
              "fabric worker: unexpected frame during handshake");
      cadence_ms_ = decode_hello_ok(frame.payload).lease_timeout_ms / 4;
      state_ = State::serving;
      append_frame(outbox_, FrameType::lease_request);
      return;
    case State::draining:
      // Read past the replies to our requests: only a shutdown is graceful.
      if (frame.type == FrameType::shutdown) state_ = State::finished;
      expects(frame.type == FrameType::shutdown ||
                  frame.type == FrameType::lease_grant ||
                  frame.type == FrameType::idle,
              "fabric worker: a send failed and no shutdown followed");
      return;
    default:
      break;
  }
  switch (frame.type) {
    case FrameType::shutdown:
      state_ = State::finished;
      return;
    case FrameType::idle:
      // Nothing pending right now, but outstanding leases elsewhere may
      // still expire back to us: park and wait for a pushed grant (or
      // shutdown) instead of spamming lease_request.
      return;
    case FrameType::lease_grant:
      lease_ = decode_lease_grant(frame.payload);
      expects(lease_->end <= shard_count_,
              "fabric worker: lease range beyond the campaign");
      next_ = lease_->begin;
      checked_ = false;
      append_frame(outbox_, FrameType::lease_request);
      flush_ = true;
      return;
    default:
      expects(false, "fabric worker: unexpected frame from coordinator");
  }
}

void WorkerCore::closed() const {
  expects(false,
          state_ == State::handshake
              ? "fabric worker: coordinator closed during handshake"
          : state_ == State::draining
              ? "fabric worker: a send failed and no shutdown followed"
              : "fabric worker: coordinator closed unexpectedly");
}

void WorkerCore::shard_done(std::string line) {
  expects(lease_.has_value() && checked_ && !flush_,
          "fabric worker: shard_done() with no shard due");
  append_frame(outbox_, FrameType::shard_done,
               encode_shard_done(ShardDoneBody{lease_->lease_id,
                                               std::move(line)}));
  checked_ = false;
  if (++next_ == lease_->end) {
    append_frame(outbox_, FrameType::lease_done,
                 encode_lease_id(lease_->lease_id));
    lease_.reset();
  }
}

// ----------------------------------------------------------------- driver

Worker::Worker(testbed::CampaignSpec spec)
    : campaign_([&spec] {
        // Workers never persist or buffer: the coordinator owns the
        // checkpoint, and run_shard_record only needs digests.
        spec.checkpoint_path.clear();
        spec.sinks = nullptr;
        return testbed::Campaign(std::move(spec));
      }()) {}

std::size_t Worker::run(Transport& transport) {
  HelloBody hello;
  hello.spec_hash = campaign_.spec().spec_hash();
  hello.seed = campaign_.spec().seed;
  hello.shard_count = campaign_.scenario_count();
  WorkerCore core(hello);
  // One warm context for every lease this worker ever serves — the same
  // reuse (and the same bits) as an in-process pool worker's claim stream.
  testbed::ShardContext context;
  std::size_t shards_run = 0;
  Frame frame;
  while (true) {
    const WorkerStep step = core.step(monotonic_ms());
    switch (step.kind) {
      case WorkerStep::Kind::send:
        try {
          transport.send_all(step.bytes.data(), step.bytes.size());
        } catch (const sim::ContractViolation&) {
          core.send_failed();
          break;
        }
        core.sent(monotonic_ms());
        break;
      case WorkerStep::Kind::run:
        core.shard_done(report::render_checkpoint_record(
            campaign_.run_shard_record(static_cast<std::size_t>(step.shard),
                                       context)));
        ++shards_run;
        break;
      case WorkerStep::Kind::read:
        if (read_frame(transport, frame)) {
          core.receive(FrameView{frame.type, frame.payload});
        } else {
          core.closed();
        }
        break;
      case WorkerStep::Kind::exit:
        return shards_run;
    }
  }
}

}  // namespace acute::fabric
