#include "testbed/experiment.hpp"

#include <memory>
#include <utility>

#include "core/timeout_prober.hpp"
#include "sim/contracts.hpp"
#include "stats/summary.hpp"
#include "tools/factory.hpp"
#include "tools/ping.hpp"

namespace acute::testbed {

using net::Packet;
using sim::Duration;
using sim::expects;

namespace {

/// Idle time that guarantees both demotion timers have fired before an
/// experiment starts (phones idle in a pocket before a measurement).
constexpr Duration kSettle = Duration::millis(800);

MultiLayerResult collect(Testbed& testbed, tools::MeasurementTool& tool) {
  MultiLayerResult result;
  result.run = tool.result();
  result.samples = testbed.layer_samples(result.run);
  if (testbed.cross_traffic_running()) {
    result.cross_throughput_mbps = testbed.cross_traffic_throughput_mbps();
  }
  return result;
}

}  // namespace

MultiLayerResult Experiment::ping(const PingSpec& spec) {
  TestbedConfig config;
  config.profile = spec.profile;
  config.seed = spec.seed;
  config.emulated_rtt = spec.emulated_rtt;
  Testbed testbed(config);
  testbed.settle(kSettle);

  tools::MeasurementTool::Config tool_config;
  tool_config.probe_count = spec.probes;
  tool_config.interval = spec.interval;
  tool_config.timeout = sim::Duration::seconds(1);
  tool_config.target = Testbed::kServerId;
  tools::IcmpPing ping_tool(testbed.phone(), tool_config);
  ping_tool.start();
  testbed.run_until_finished(ping_tool);
  return collect(testbed, ping_tool);
}

Experiment::DriverDelayResult Experiment::driver_delays(
    const DriverDelaySpec& spec) {
  TestbedConfig config;
  config.profile = spec.profile;
  config.seed = spec.seed;
  config.emulated_rtt = spec.emulated_rtt;
  Testbed testbed(config);
  testbed.phone().bus().set_sleep_enabled(spec.bus_sleep_enabled);
  testbed.settle(kSettle);
  testbed.phone().driver().clear_logs();

  tools::MeasurementTool::Config tool_config;
  tool_config.probe_count = spec.probes;
  tool_config.interval = spec.interval;
  tool_config.timeout = sim::Duration::seconds(1);
  tool_config.target = Testbed::kServerId;
  tools::IcmpPing ping_tool(testbed.phone(), tool_config);
  ping_tool.start();
  testbed.run_until_finished(ping_tool);

  DriverDelayResult result;
  result.dvsend_ms = testbed.phone().driver().dvsend_log_ms();
  result.dvrecv_ms = testbed.phone().driver().dvrecv_log_ms();
  return result;
}

MultiLayerResult Experiment::acutemon(const AcuteMonSpec& spec) {
  TestbedConfig config;
  config.profile = spec.profile;
  config.seed = spec.seed;
  config.emulated_rtt = spec.emulated_rtt;
  config.congested_phy = spec.cross_traffic;
  Testbed testbed(config);
  testbed.phone().bus().set_sleep_enabled(spec.bus_sleep_enabled);
  testbed.settle(kSettle);
  if (spec.cross_traffic) {
    testbed.start_cross_traffic();
    testbed.settle(sim::Duration::seconds(2));  // reach saturation
  }

  tools::MeasurementTool::Config tool_config;
  tool_config.probe_count = spec.probes;
  tool_config.timeout = sim::Duration::seconds(1);
  tool_config.target = Testbed::kServerId;
  core::AcuteMon::Options options;
  options.background_enabled = spec.background_enabled;
  options.method = spec.method;
  core::AcuteMon monitor(testbed.phone(), tool_config, options);
  monitor.start_measurement();
  testbed.run_until_finished(monitor);
  MultiLayerResult result = collect(testbed, monitor);
  testbed.stop_cross_traffic();
  return result;
}

MultiLayerResult Experiment::tool(const ToolSpec& spec) {
  if (spec.kind == tools::ToolKind::acutemon) {
    AcuteMonSpec am;
    am.profile = spec.profile;
    am.emulated_rtt = spec.emulated_rtt;
    am.probes = spec.probes;
    am.cross_traffic = spec.cross_traffic;
    am.seed = spec.seed;
    return acutemon(am);
  }

  TestbedConfig config;
  config.profile = spec.profile;
  config.seed = spec.seed;
  config.emulated_rtt = spec.emulated_rtt;
  config.congested_phy = spec.cross_traffic;
  Testbed testbed(config);
  testbed.settle(kSettle);
  if (spec.cross_traffic) {
    testbed.start_cross_traffic();
    testbed.settle(sim::Duration::seconds(2));
  }

  tools::MeasurementTool::Config tool_config;
  tool_config.probe_count = spec.probes;
  tool_config.interval = spec.interval;
  tool_config.timeout = sim::Duration::seconds(1);
  tool_config.target = Testbed::kServerId;

  std::unique_ptr<tools::MeasurementTool> tool =
      tools::make_tool(spec.kind, testbed.phone(), tool_config);
  tool->start();
  testbed.run_until_finished(*tool);
  MultiLayerResult result = collect(testbed, *tool);
  testbed.stop_cross_traffic();
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
        PingSpec spec;
        spec.profile = profile;
        spec.emulated_rtt = emulated_rtt;
        spec.interval = sim::Duration::seconds(2);  // idle between probes
        spec.probes = probe_count;
        spec.seed = seed + 1000 + run_counter++;
        return ping(spec).run.reported_rtts_ms();
      };
  inference.psm_timeout =
      core::TimeoutProber::infer_psm_timeout(rtt_probe, prober_config);

  // --- Tis: binary-search the idle gap for the bus-wake onset.
  const core::TimeoutProber::GapProbeFn gap_probe =
      [&](Duration idle_gap, int probe_count) {
        TestbedConfig config;
        config.profile = profile;
        config.seed = seed + 5000 + run_counter++;
        config.emulated_rtt = sim::Duration::millis(5);
        Testbed testbed(config);
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
    PingSpec spec;
    spec.profile = profile;
    spec.emulated_rtt = inference.psm_timeout + Duration::millis(80);
    spec.interval = sim::Duration::seconds(2);
    spec.probes = 30;
    spec.seed = seed + 9000;
    const MultiLayerResult result = ping(spec);
    std::vector<double> psm_delays;
    for (const auto& sample : result.samples) {
      const double delay = sample.dn_ms - spec.emulated_rtt.to_ms();
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
