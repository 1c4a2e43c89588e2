#include "testbed/experiment.hpp"

#include <memory>
#include <utility>

#include "core/acutemon.hpp"
#include "core/timeout_prober.hpp"
#include "sim/contracts.hpp"
#include "tools/factory.hpp"

namespace acute::testbed {

using net::Packet;
using sim::Duration;
using sim::expects;

namespace {

/// Idle time that guarantees both demotion timers have fired before an
/// experiment starts (phones idle in a pocket before a measurement).
constexpr Duration kSettle = Duration::millis(800);

/// A one-phone ICMP ping scenario probing at a 2 s interval, so every probe
/// meets an idle phone (the timeout-inference runs).
ScenarioSpec idle_ping(const phone::PhoneProfile& profile,
                       Duration emulated_rtt, int probes,
                       std::uint64_t seed) {
  ScenarioSpec spec;
  spec.phones.front().profile = profile;
  spec.phones.front().workload.probe_count = probes;
  spec.phones.front().workload.interval = Duration::seconds(2);
  spec.emulated_rtt = emulated_rtt;
  spec.seed = seed;
  return spec;
}

}  // namespace

MultiLayerResult Experiment::run(const ScenarioSpec& spec,
                                 const Ablation& ablation) {
  expects(spec.phones.size() == 1,
          "Experiment::run drives exactly one phone; use Campaign for more");
  const WorkloadSpec& workload = spec.phones.front().workload;
  expects(workload.passive == passive::PassiveVantage::none,
          "Experiment::run has no passive vantage; use Campaign");

  Testbed testbed(spec);
  phone::Smartphone& phone = testbed.phone();
  phone.bus().set_sleep_enabled(ablation.bus_sleep_enabled);
  testbed.settle(kSettle);
  if (spec.congested_phy) {
    testbed.start_cross_traffic();
    testbed.settle(Duration::seconds(2));  // reach saturation
  }
  phone.driver().clear_logs();

  tools::MeasurementTool::Config config;
  config.probe_count = workload.probe_count > 0 ? workload.probe_count : 100;
  config.interval = workload.interval.is_zero() ? Duration::seconds(1)
                                                : workload.interval;
  config.timeout = workload.timeout.is_zero() ? Duration::seconds(1)
                                              : workload.timeout;
  config.target = Testbed::kServerId;
  std::unique_ptr<tools::MeasurementTool> tool;
  if (workload.tool == tools::ToolKind::acutemon) {
    core::AcuteMon::Options options;
    options.background_enabled = ablation.acutemon_background;
    tool = std::make_unique<core::AcuteMon>(phone, config, options);
  } else {
    tool = tools::make_tool(workload.tool, phone, config);
  }
  tool->start();
  testbed.run_until_finished(*tool);

  MultiLayerResult result;
  result.run = tool->result();
  result.samples = testbed.layer_samples(result.run);
  result.dvsend_ms = phone.driver().dvsend_log_ms();
  result.dvrecv_ms = phone.driver().dvrecv_log_ms();
  if (spec.congested_phy) {
    result.cross_throughput_mbps = testbed.cross_traffic_throughput_mbps();
  }
  return result;
}

namespace {

/// Warm-up / idle-gap / probe sequencer for the Tis inference: sends a pair
/// of warm-up packets (the second leaves with the bus already awake), waits
/// `gap`, sends an ICMP probe and records the user-level RTT.
class GapProbeSession {
 public:
  GapProbeSession(Testbed& testbed, Duration gap, int probes)
      : testbed_(&testbed), gap_(gap), target_(probes) {
    flow_id_ = testbed.phone().allocate_flow_id();
    testbed.phone().register_flow(flow_id_, [this](const Packet&) {
      if (!awaiting_) return;
      awaiting_ = false;
      rtts_.push_back((testbed_->simulator().now() - probe_sent_).to_ms());
      schedule_next();
    });
  }

  ~GapProbeSession() { testbed_->phone().unregister_flow(flow_id_); }

  std::vector<double> run() {
    schedule_next();
    auto& sim = testbed_->simulator();
    const sim::TimePoint deadline = sim.now() + Duration::seconds(600);
    while (rtts_.size() < static_cast<std::size_t>(target_) &&
           sim.now() < deadline) {
      sim.run_for(Duration::millis(50));
    }
    return rtts_;
  }

 private:
  void schedule_next() {
    if (rtts_.size() >= static_cast<std::size_t>(target_)) return;
    auto& phone = testbed_->phone();
    auto& sim = testbed_->simulator();
    // Let the phone go fully idle, then warm, wait the gap, probe.
    sim.schedule_in(Duration::millis(700), [this, &phone, &sim] {
      phone.send(make_warmup(), phone::ExecMode::native_c);
      sim.schedule_in(Duration::millis(15), [this, &phone, &sim] {
        phone.send(make_warmup(), phone::ExecMode::native_c);
        sim.schedule_in(gap_, [this, &phone, &sim] {
          Packet probe = Packet::make(
              net::PacketType::icmp_echo_request, net::Protocol::icmp,
              0, Testbed::kServerId, net::packet_size::icmp_echo);
          probe.probe_id = Packet::allocate_id();
          probe.flow_id = flow_id_;
          probe_sent_ = sim.now();
          awaiting_ = true;
          phone.send(std::move(probe), phone::ExecMode::native_c);
        });
      });
    });
  }

  Packet make_warmup() const {
    Packet pkt = Packet::make(net::PacketType::udp_warmup, net::Protocol::udp,
                              0, Testbed::kServerId,
                              net::packet_size::udp_small);
    pkt.ttl = 1;  // dies at the AP
    pkt.flow_id = flow_id_;
    return pkt;
  }

  Testbed* testbed_;
  Duration gap_;
  int target_;
  std::uint32_t flow_id_ = 0;
  std::vector<double> rtts_;
  sim::TimePoint probe_sent_;
  bool awaiting_ = false;
};

}  // namespace

Experiment::TimeoutInference Experiment::infer_timeouts(
    const phone::PhoneProfile& profile, std::uint64_t seed) {
  TimeoutInference inference;
  core::TimeoutProber::Config prober_config;

  // --- Tip: binary-search the emulated RTT for the PSM-inflation onset.
  std::uint64_t run_counter = 0;
  const core::TimeoutProber::RttProbeFn rtt_probe =
      [&](Duration emulated_rtt, int probe_count) {
        return run(idle_ping(profile, emulated_rtt, probe_count,
                             seed + 1000 + run_counter++))
            .run.reported_rtts_ms();
      };
  inference.psm_timeout =
      core::TimeoutProber::infer_psm_timeout(rtt_probe, prober_config);

  // --- Tis: binary-search the idle gap for the bus-wake onset.
  const core::TimeoutProber::GapProbeFn gap_probe =
      [&](Duration idle_gap, int probe_count) {
        ScenarioSpec spec;
        spec.phones.front().profile = profile;
        spec.seed = seed + 5000 + run_counter++;
        spec.emulated_rtt = Duration::millis(5);
        Testbed testbed(spec);
        testbed.settle(kSettle);
        GapProbeSession session(testbed, idle_gap, probe_count);
        return session.run();
      };
  inference.bus_sleep_timeout =
      core::TimeoutProber::infer_bus_sleep_timeout(gap_probe, prober_config);

  // --- Listen intervals: associated is announced; actual is inferred from
  // the PSM delays of a path longer than Tip.
  inference.listen_associated = profile.associated_listen_interval;
  {
    const Duration emulated_rtt = inference.psm_timeout + Duration::millis(80);
    const MultiLayerResult result =
        run(idle_ping(profile, emulated_rtt, 30, seed + 9000));
    std::vector<double> psm_delays;
    for (const auto& sample : result.samples) {
      const double delay = sample.dn_ms - emulated_rtt.to_ms();
      if (delay > 5.0) psm_delays.push_back(delay);
    }
    inference.listen_actual =
        psm_delays.empty()
            ? 0
            : core::TimeoutProber::infer_actual_listen_interval(psm_delays);
  }
  return inference;
}

}  // namespace acute::testbed
