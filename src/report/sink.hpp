// ResultSink: the pluggable consumer side of the streaming results API.
//
// The campaign builds one sink chain per shard — the built-in DigestSink
// whose digests become the shard's report::ShardCheckpoint, plus whatever
// CampaignSpec::sinks (a SinkFactory) returns — and delivers the shard's
// event stream through it. Per-probe values leave a campaign only this way.
//
// Delivery contract (what a sink may rely on):
//   * Exactly one shard_started(info), first.
//   * One probe_completed() per scheduled probe, in **canonical order**:
//     phones in scenario order, probes in schedule-index order within each
//     phone — the same order the legacy buffered sample vectors used, so
//     order-sensitive folds (t-digests) reproduce the historical bits.
//     When a phone's workload enables a passive vantage point, its passive
//     events follow its active probes: first every Vantage::passive_sniffer
//     sample (estimator emission order), then every Vantage::passive_app
//     sample (monitor emission order), still within the phone's slot of the
//     phone-major sweep. Passive events never count toward probes_sent/lost.
//   * Exactly one shard_finished(summary), last, after the shard's work
//     counters are final.
//   * All three happen on the worker thread executing the shard; a sink
//     instance is owned by exactly one shard and needs no locking. Sinks of
//     different shards run concurrently — anything they *share* (an output
//     file, a writer) must synchronize internally (see JsonlWriter /
//     CheckpointWriter).
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "report/event.hpp"

namespace acute::report {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void shard_started(const ShardInfo& /*info*/) {}
  virtual void probe_completed(const ProbeEvent& event) = 0;
  virtual void shard_finished(const ShardSummary& /*summary*/) {}
};

/// Builds the extra per-shard sinks of one shard. Invoked once per shard,
/// concurrently from worker threads — the factory itself must be
/// thread-safe (capture shared writers by shared_ptr; they lock internally).
using SinkFactory =
    std::function<std::vector<std::unique_ptr<ResultSink>>(const ShardInfo&)>;

/// Owns one shard's sinks and fans each event out to them in add() order.
/// Sinks can be owned (add) or borrowed (add_ref) — the shard-context pool
/// keeps its built-in sinks alive across shards and re-adds them by
/// reference, so only the genuinely per-shard sinks are heap-allocated.
class SinkChain {
 public:
  void add(std::unique_ptr<ResultSink> sink) {
    if (sink != nullptr) {
      sinks_.push_back(sink.get());
      owned_.push_back(std::move(sink));
    }
  }

  /// Adds a sink the caller keeps alive for the chain's lifetime (until the
  /// next clear()).
  void add_ref(ResultSink& sink) { sinks_.push_back(&sink); }

  /// Drops every sink (destroying the owned ones) but keeps the vectors'
  /// capacity — returns the chain to its freshly-constructed state.
  void clear() {
    sinks_.clear();
    owned_.clear();
  }

  void shard_started(const ShardInfo& info) {
    for (ResultSink* sink : sinks_) sink->shard_started(info);
  }
  void probe_completed(const ProbeEvent& event) {
    for (ResultSink* sink : sinks_) sink->probe_completed(event);
  }
  void shard_finished(const ShardSummary& summary) {
    for (ResultSink* sink : sinks_) sink->shard_finished(summary);
  }

 private:
  std::vector<ResultSink*> sinks_;
  std::vector<std::unique_ptr<ResultSink>> owned_;
};

}  // namespace acute::report
