#include "report/digest_sink.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::report {

using sim::expects;

void WorkloadDigest::merge(WorkloadDigest&& other) {
  expects(tool == other.tool,
          "WorkloadDigest::merge requires matching tool kinds");
  probes += other.probes;
  lost += other.lost;
  reported_rtt_ms.merge(std::move(other.reported_rtt_ms));
  du_ms.merge(std::move(other.du_ms));
  dk_ms.merge(std::move(other.dk_ms));
  dv_ms.merge(std::move(other.dv_ms));
  dn_ms.merge(std::move(other.dn_ms));
  passive_sniffer_samples += other.passive_sniffer_samples;
  passive_app_samples += other.passive_app_samples;
  passive_sniffer_rtt_ms.merge(std::move(other.passive_sniffer_rtt_ms));
  passive_app_rtt_ms.merge(std::move(other.passive_app_rtt_ms));
  other.probes = 0;
  other.lost = 0;
  other.passive_sniffer_samples = 0;
  other.passive_app_samples = 0;
}

WorkloadDigest& WorkloadFold::slot(tools::ToolKind kind) {
  auto& entry = slots_[tools::tool_kind_index(kind)];
  if (!entry.has_value()) {
    entry.emplace();
    entry->tool = kind;
  }
  return *entry;
}

std::vector<WorkloadDigest> WorkloadFold::take() {
  std::vector<WorkloadDigest> out;
  for (auto& entry : slots_) {
    if (entry.has_value()) {
      out.push_back(std::move(*entry));
      entry.reset();
    }
  }
  return out;
}

std::vector<WorkloadDigest> WorkloadFold::snapshot() const {
  std::vector<WorkloadDigest> out;
  for (const auto& entry : slots_) {
    if (entry.has_value()) out.push_back(*entry);
  }
  return out;
}

void WorkloadFold::fold_shard(std::vector<WorkloadDigest>&& digests) {
  for (WorkloadDigest& digest : digests) {
    slot(digest.tool).merge(std::move(digest));
  }
  digests.clear();
  digests.shrink_to_fit();
}

void fold_probe(WorkloadFold& fold, const ProbeEvent& event) {
  WorkloadDigest& slot = fold.slot(event.tool);
  // Passive samples fold into their own accumulators: they are observations
  // of the active flow, not probes, so the probe/loss counters (and the
  // active RTT digests) must not see them.
  if (event.vantage == Vantage::passive_sniffer) {
    ++slot.passive_sniffer_samples;
    slot.passive_sniffer_rtt_ms.add(event.reported_rtt_ms);
    return;
  }
  if (event.vantage == Vantage::passive_app) {
    ++slot.passive_app_samples;
    slot.passive_app_rtt_ms.add(event.reported_rtt_ms);
    return;
  }
  ++slot.probes;
  if (event.timed_out) {
    ++slot.lost;
    return;
  }
  slot.reported_rtt_ms.add(event.reported_rtt_ms);
  if (event.layers.has_value()) {
    slot.du_ms.add(event.layers->du_ms);
    slot.dk_ms.add(event.layers->dk_ms);
    slot.dv_ms.add(event.layers->dv_ms);
    slot.dn_ms.add(event.layers->dn_ms);
  }
}

void DigestSink::probe_completed(const ProbeEvent& event) {
  fold_probe(fold_, event);
}

}  // namespace acute::report
