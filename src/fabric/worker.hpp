// The fabric worker: a leased-range shard executor with no merge of its own.
//
// A worker holds the same CampaignSpec as the coordinator (the hello
// handshake proves it: CampaignSpec::spec_hash() + seed + shard count must
// all match, or the coordinator rejects loudly), runs whatever scenario
// ranges it is leased through Campaign::run_shard_record on one warm
// ShardContext, and streams each shard back as its ckpt2 record line. It
// asks for its next lease as soon as a grant arrives, so one lease stays
// queued behind the one it runs, and a lease's records leave in one send
// unless the coordinator's lease timeout calls for heartbeats. It never
// touches a checkpoint file and never merges — persistence and the
// in-order fold belong to the coordinator, so any number of workers can
// come and go without owning campaign state.
//
// Crash model: a worker that dies mid-lease simply disappears — the
// coordinator sees EOF, re-leases the uncompleted range, and the replacing
// worker reproduces bit-identical records (shards are pure functions of
// (spec, seed, index)). WorkerConfig::max_shards is the test seam for
// exactly that: stop after N shards *without* lease_done, closing the
// transport the same way SIGKILL would.
#pragma once

#include <cstddef>

#include "fabric/transport.hpp"
#include "testbed/campaign.hpp"

namespace acute::fabric {

struct WorkerConfig {
  /// 0 = serve until the coordinator shuts us down. N > 0: return after
  /// running N shards, mid-lease and without ceremony — the simulated
  /// worker death used by the fault-injection tests.
  std::size_t max_shards = 0;
};

class Worker {
 public:
  /// `spec` must describe the same campaign as the coordinator's (the
  /// handshake enforces it). Checkpoint/sink settings are ignored — workers
  /// execute, they do not persist.
  explicit Worker(testbed::CampaignSpec spec, WorkerConfig config = {});

  /// Serves leases over `transport` until the coordinator sends shutdown
  /// (or max_shards triggers the simulated death). Returns shards run.
  /// Contract violation on a torn frame or a handshake reject — a worker
  /// talking to a confused or mismatched coordinator must die loudly, not
  /// idle forever.
  std::size_t run(Transport& transport);

 private:
  testbed::Campaign campaign_;
  WorkerConfig config_;
};

}  // namespace acute::fabric
