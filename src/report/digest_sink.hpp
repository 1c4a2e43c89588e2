// DigestSink: the built-in fold of the results pipeline.
//
// Folds a shard's probe events into fixed-size per-workload
// stats::MergingDigest accumulators — the digests of the shard's
// report::ShardCheckpoint. Memory is O(tool kinds), not
// O(probes), and the fold is a pure function of the (canonically ordered)
// event stream, so shard digests are bit-identical for any worker count.
#pragma once

#include <cstddef>
#include <array>
#include <optional>
#include <vector>

#include "report/sink.hpp"
#include "stats/digest.hpp"
#include "tools/factory.hpp"

namespace acute::report {

/// Streaming accumulator for one workload kind: fixed-size digests of the
/// reported RTTs and the Fig. 1 layer decomposition, plus exact counters.
/// All sample units are **milliseconds**.
struct WorkloadDigest {
  /// The tool these samples came from.
  tools::ToolKind tool = tools::ToolKind::icmp_ping;
  /// Probes sent / lost by this workload (exact).
  std::size_t probes = 0;
  std::size_t lost = 0;
  /// Tool-reported RTTs of the successful probes (ms).
  stats::MergingDigest reported_rtt_ms;
  /// Fig. 1 decomposition of the fully-stamped probes (ms; WiFi phones
  /// only — cellular probes lack driver/air stamps).
  stats::MergingDigest du_ms, dk_ms, dv_ms, dn_ms;
  /// Passive vantage points observing the same flows (zero-injected RTT
  /// samples; see report::Vantage). Sample counts are exact and separate
  /// from `probes`/`lost` — passive samples are not probes.
  std::size_t passive_sniffer_samples = 0;
  std::size_t passive_app_samples = 0;
  stats::MergingDigest passive_sniffer_rtt_ms, passive_app_rtt_ms;

  /// Folds `other` (same tool kind) into this accumulator, consuming it:
  /// adopts other's digest storage where possible and leaves `other`
  /// empty-but-valid with its heap buffers released (the frontier's
  /// per-shard free).
  void merge(WorkloadDigest&& other);
};

/// Group-by-ToolKind accumulator shared by the per-shard sink and the
/// campaign-report merge: slots are kind-indexed, so take() emits in
/// ascending ToolKind order — the documented ordering of
/// ShardCheckpoint::digests and CampaignReport::workload_digests().
class WorkloadFold {
 public:
  /// The accumulator for `kind`, created on first access.
  WorkloadDigest& slot(tools::ToolKind kind);

  /// The populated accumulators, ascending ToolKind. Leaves the fold empty.
  [[nodiscard]] std::vector<WorkloadDigest> take();

  /// Copies of the populated accumulators, ascending ToolKind; the fold
  /// keeps its state (the repeatable-read surface of campaign reports).
  /// Bit-identical to what take() would return.
  [[nodiscard]] std::vector<WorkloadDigest> snapshot() const;

  /// Folds one shard's take()-ordered digests into the campaign-level
  /// slots, consuming them: the canonical frontier step.
  void fold_shard(std::vector<WorkloadDigest>&& digests);

 private:
  std::array<std::optional<WorkloadDigest>, tools::kToolKindCount> slots_;
};

/// The one probe-fold rule of the pipeline: counters always, reported RTT
/// for successful probes, layer digests for fully-stamped ones. DigestSink
/// applies it to every shard, so a checkpointed, restored or fabric-shipped
/// shard carries the same digest bits as one folded in memory.
void fold_probe(WorkloadFold& fold, const ProbeEvent& event);

class DigestSink : public ResultSink {
 public:
  void probe_completed(const ProbeEvent& event) override;

  /// The shard's per-workload accumulators, ascending ToolKind; call after
  /// the stream completes.
  [[nodiscard]] std::vector<WorkloadDigest> take_digests() {
    return fold_.take();
  }

  /// Discards any accumulated state (a take_digests() already leaves the
  /// sink empty; reset() covers the shard-that-threw case so a reused
  /// context never folds a dead shard's leftovers into the next one).
  void reset() { fold_ = WorkloadFold{}; }

 private:
  WorkloadFold fold_;
};

}  // namespace acute::report
