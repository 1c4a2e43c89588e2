// ShardContext: the per-worker reusable execution context of a campaign.
//
// Building a shard from nothing — a Simulator, a Testbed node graph, one
// stack pipeline per phone, a measurement tool per phone, the sink scratch —
// costs thousands of heap allocations, and a 10^4..10^6-shard sweep pays
// that price per shard. A ShardContext keeps all of it alive between
// shards: Campaign::run gives each worker one context, and run_shard
// *resets* the warm objects into the next scenario (Testbed::rebuild, the
// per-layer reset() contract, MeasurementTool::reinitialize) instead of
// destroying and reconstructing them.
//
// The hard constraint is bit-identity: a shard executed on a reused context
// produces byte-identical digests, JSONL exports and checkpoint records to
// one executed on a fresh context, for any worker count and across
// kill/resume. It holds by construction: the constructor binds, reset()
// initializes. Each component's constructor stores only its fixed bindings
// and reset() is its one initialization body, so a fresh build and a reuse
// run the same code; Testbed's constructor and rebuild() share one
// build_graph(), so the event schedule (and thus every rng draw) matches.
// docs/campaigns.md § "The shard-context pool" documents the full contract
// and what is / is not reused.
#pragma once

#include <cstddef>
#include <memory>

namespace acute::testbed {

class Campaign;

class ShardContext {
 public:
  ShardContext();
  ~ShardContext();
  ShardContext(ShardContext&& other) noexcept;
  ShardContext& operator=(ShardContext&& other) noexcept;
  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;

  /// Shards executed through this context so far.
  [[nodiscard]] std::size_t shards_run() const;
  /// Shards that reused the warm testbed (all but the context's first).
  [[nodiscard]] std::size_t reuses() const;

 private:
  friend class Campaign;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace acute::testbed
