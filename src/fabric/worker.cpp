#include "fabric/worker.hpp"

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>

#include "fabric/wire.hpp"
#include "report/checkpoint.hpp"
#include "sim/contracts.hpp"

namespace acute::fabric {

using sim::expects;

Worker::Worker(testbed::CampaignSpec spec, WorkerConfig config)
    : campaign_([&spec] {
        // Workers never persist or buffer: the coordinator owns the
        // checkpoint, and run_shard_record only needs digests.
        spec.checkpoint_path.clear();
        spec.sinks = nullptr;
        return testbed::Campaign(std::move(spec));
      }()),
      config_(config) {}

std::size_t Worker::run(Transport& transport) {
  // Handshake: prove we hold the same campaign before any work moves.
  HelloBody hello;
  hello.spec_hash = campaign_.spec().spec_hash();
  hello.seed = campaign_.spec().seed;
  hello.shard_count = campaign_.scenario_count();
  write_frame(transport, FrameType::hello, encode_hello(hello));

  Frame frame;
  expects(read_frame(transport, frame),
          "fabric worker: coordinator closed during handshake");
  if (frame.type == FrameType::reject) {
    expects(false, ("fabric worker: coordinator rejected handshake: " +
                    frame.payload)
                       .c_str());
  }
  if (frame.type == FrameType::shutdown) return 0;  // nothing to do
  expects(frame.type == FrameType::hello_ok,
          "fabric worker: unexpected frame during handshake");
  // Any frame of ours heartbeats every lease we hold, so sending at least
  // every quarter of the coordinator's lease timeout (plus one shard) keeps
  // them all alive.
  const std::chrono::milliseconds cadence(
      decode_hello_ok(frame.payload).lease_timeout_ms / 4);

  // Frames queue in `outbox` and leave in one send:
  //   - the next lease_request, at once when a grant arrives, so the next
  //     grant is already buffered when this lease ends;
  //   - a heartbeat before a shard, only once `cadence` has passed since
  //     the last send, with the shard_dones queued so far;
  //   - the rest right before the worker blocks on a read, so a lease's
  //     shard_dones and its lease_done leave together.
  //
  // Campaign completion is the coordinator's call, made the instant the
  // last shard_done arrives — which may be ours, with more frames still in
  // flight when it sends shutdown and closes. A failed send therefore reads
  // what is buffered first, past the replies to our requests (a grant or
  // idle): a shutdown turns the failure into a graceful exit; anything
  // else (the coordinator actually died) stays loud.
  std::string outbox;
  auto last_send = std::chrono::steady_clock::now();
  auto flush_or_finished = [&transport, &outbox, &last_send] {
    if (outbox.empty()) return false;
    try {
      transport.send_all(outbox.data(), outbox.size());
      outbox.clear();
      last_send = std::chrono::steady_clock::now();
      return false;
    } catch (const sim::ContractViolation&) {
      Frame pending;
      while (read_frame(transport, pending)) {
        if (pending.type == FrameType::shutdown) return true;
        if (pending.type != FrameType::lease_grant &&
            pending.type != FrameType::idle) {
          break;
        }
      }
      throw;
    }
  };

  // One warm context for every lease this worker ever serves — the same
  // reuse (and the same bits) as an in-process pool worker's claim stream.
  testbed::ShardContext context;
  std::size_t shards_run = 0;
  append_frame(outbox, FrameType::lease_request);
  while (true) {
    if (flush_or_finished()) return shards_run;
    if (!read_frame(transport, frame)) {
      // Coordinator vanished without shutdown: loud, a worker must not
      // idle against a dead coordinator.
      expects(false, "fabric worker: coordinator closed unexpectedly");
    }
    switch (frame.type) {
      case FrameType::shutdown:
        return shards_run;
      case FrameType::idle:
        // Nothing pending right now, but outstanding leases elsewhere may
        // still expire back to us: park and wait for a pushed grant (or
        // shutdown) instead of spamming lease_request.
        continue;
      case FrameType::lease_grant: {
        const LeaseGrantBody lease = decode_lease_grant(frame.payload);
        expects(lease.end <= campaign_.scenario_count(),
                "fabric worker: lease range beyond the campaign");
        append_frame(outbox, FrameType::lease_request);
        if (flush_or_finished()) return shards_run;
        for (std::uint64_t index = lease.begin; index < lease.end; ++index) {
          if (config_.max_shards > 0 && shards_run >= config_.max_shards) {
            // Simulated mid-lease death: the shards already run reach the
            // coordinator, then no lease_done, no goodbye — the transport
            // closes when the caller drops it, exactly what the
            // coordinator sees when SIGKILL takes a real worker.
            (void)flush_or_finished();
            return shards_run;
          }
          if (std::chrono::steady_clock::now() - last_send >= cadence) {
            append_frame(outbox, FrameType::heartbeat,
                         encode_lease_id(lease.lease_id));
            if (flush_or_finished()) return shards_run;
          }
          const report::ShardCheckpoint record = campaign_.run_shard_record(
              static_cast<std::size_t>(index), context);
          const ShardDoneBody done{lease.lease_id,
                                   report::render_checkpoint_record(record)};
          append_frame(outbox, FrameType::shard_done,
                       encode_shard_done(done));
          ++shards_run;
        }
        append_frame(outbox, FrameType::lease_done,
                     encode_lease_id(lease.lease_id));
        break;
      }
      default:
        expects(false, "fabric worker: unexpected frame from coordinator");
    }
  }
}

}  // namespace acute::fabric
