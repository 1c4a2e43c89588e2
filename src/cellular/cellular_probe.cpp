#include "cellular/cellular_probe.hpp"

#include <memory>
#include <utility>

#include "sim/contracts.hpp"
#include "sim/timer.hpp"

namespace acute::cellular {

using sim::Duration;
using sim::expects;
using sim::TimePoint;

CellularPath::CellularPath(sim::Simulator& sim, sim::Rng rng, RrcMachine& rrc,
                           Config config)
    : sim_(&sim),
      rng_(std::move(rng)),
      config_(config),
      radio_(sim, rrc),
      pipeline_(sim) {
  pipeline_.append(radio_);
  // Core network: echo every uplink packet back into the radio after the
  // (per-probe) core RTT. The downlink state latency is paid by the radio
  // layer at deliver() time, when the RRC state may have changed.
  radio_.set_egress([this](net::Packet pkt) {
    const auto it = pending_.find(pkt.probe_id);
    if (it == pending_.end()) return;  // keep-alive, no echo expected
    const Duration core = it->second.core;
    sim_->schedule_in(core, [this, pkt = std::move(pkt)]() mutable {
      radio_.deliver(std::move(pkt));
    });
  });
  pipeline_.set_app_handler([this](net::Packet pkt) {
    const auto it = pending_.find(pkt.probe_id);
    if (it == pending_.end()) return;
    Pending entry = std::move(it->second);
    pending_.erase(it);
    entry.done(sim_->now() - entry.sent);
  });
}

void CellularPath::probe(std::uint32_t bytes,
                         std::function<void(Duration)> done) {
  expects(static_cast<bool>(done), "CellularPath::probe requires a callback");
  net::Packet pkt = net::Packet::make(net::PacketType::udp_data,
                                      net::Protocol::udp, 0, 0, bytes);
  pkt.probe_id = net::Packet::allocate_id();
  // Draw the core jitter now so the per-probe draw order is stable no
  // matter when the packet clears the radio.
  const Duration core =
      config_.core_rtt +
      rng_.uniform_duration(-config_.core_jitter, config_.core_jitter);
  pending_[pkt.probe_id] = Pending{sim_->now(), core, std::move(done)};
  pipeline_.transmit(std::move(pkt));
}

std::vector<double> CellularProbeSession::run(const Spec& spec) {
  expects(spec.probes > 0, "CellularProbeSession requires probes > 0");
  sim::Simulator sim;
  sim::Rng rng(spec.seed);
  RrcMachine rrc(sim, rng.fork("rrc"), spec.rrc);
  CellularPath path(sim, rng.fork("path"), rrc, spec.path);

  std::vector<double> rtts;

  // Keep-alive thread (the AcuteMon cellular analogue): tiny packets below
  // the FACH threshold would not hold DCH, so keep-alives are sized above
  // it; they ride an established DCH for free once promoted.
  sim::PeriodicTimer keepalive(sim, spec.keepalive_interval,
                               [&](std::uint64_t) {
                                 (void)rrc.request_transmit(
                                     spec.probe_bytes);
                               });
  if (spec.keep_awake) {
    // Warm-up: promote now; probing starts once DCH is stable.
    (void)rrc.request_transmit(spec.probe_bytes);
    keepalive.start(spec.keepalive_interval);
  }
  const Duration warmup_lead =
      spec.keep_awake ? spec.rrc.idle_to_dch + sim::Duration::millis(500)
                      : Duration{};

  // Sequential probes separated by probe_interval.
  std::function<void(int)> launch = [&](int index) {
    if (index >= spec.probes) return;
    path.probe(spec.probe_bytes, [&, index](Duration rtt) {
      rtts.push_back(rtt.to_ms());
      sim.schedule_in(spec.probe_interval,
                      [&launch, index] { launch(index + 1); });
    });
  };
  sim.schedule_in(warmup_lead, [&launch] { launch(0); });

  const TimePoint deadline =
      sim.now() + spec.probe_interval * (spec.probes + 4) +
      sim::Duration::seconds(30);
  while (rtts.size() < static_cast<std::size_t>(spec.probes) &&
         sim.now() < deadline) {
    sim.run_for(sim::Duration::millis(100));
  }
  keepalive.stop();
  return rtts;
}

}  // namespace acute::cellular
