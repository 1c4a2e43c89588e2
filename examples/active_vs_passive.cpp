// Reproduces: the paper's active-vs-passive methodology contrast (§1-§2).
// Inflated tool-reported RTTs are the paper's core finding; passive vantage
// points measure the same flows WITHOUT injecting traffic and without the
// phone-side overheads. Two passive observers run here alongside an active
// TCP tool on the Fig. 2 testbed:
//
//   * passive::PpingEstimator on sniffer 0 — the pping/DlyLoc technique:
//     match each outbound TCP TSval with the first inbound TSecr echo. At
//     the capture point this recovers exactly dn, the network-level RTT.
//   * passive::PerAppMonitor on the phone's exec-env flow demux — the
//     MopEye-style on-device vantage: pair each app send with the delivery
//     of its response, recovering t_u^i - t_u^o per app without probes.
//
// The printout contrasts the three distributions: what the tool REPORTS
// (inflated), what the app-boundary pairing sees (runtime overheads
// included, reporting quirks excluded), and what the wire sees (dn).
//
// Usage: ./build/example_active_vs_passive [--probes N] [--tool NAME]
//        [--rtt-ms MS] [--congested]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "passive/per_app.hpp"
#include "passive/pping.hpp"
#include "stats/summary.hpp"
#include "testbed/testbed.hpp"
#include "tools/factory.hpp"

using namespace acute;
using sim::Duration;

namespace {

void print_row(const char* label, const std::vector<double>& samples) {
  if (samples.empty()) {
    std::printf("  %-28s (no samples)\n", label);
    return;
  }
  const stats::Summary s{std::span<const double>(samples)};
  std::printf("  %-28s n=%-4zu median=%7.2f ms  p95=%7.2f ms  min=%7.2f ms\n",
              label, samples.size(), s.median(), s.percentile(95),
              s.min());
}

}  // namespace

int main(int argc, char** argv) {
  int probes = 40;
  std::string tool_name = "httping";
  double rtt_ms = 20;
  bool congested = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--probes") && i + 1 < argc) {
      probes = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--tool") && i + 1 < argc) {
      tool_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--rtt-ms") && i + 1 < argc) {
      rtt_ms = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--congested")) {
      congested = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--probes N] [--tool ping|java-ping|httping|"
                   "acutemon] [--rtt-ms MS] [--congested]\n",
                   argv[0]);
      return 2;
    }
  }
  const auto kind = tools::parse_tool_kind(tool_name);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown tool '%s'\n", tool_name.c_str());
    return 2;
  }

  // Fig. 2, with noiseless sniffers so the capture-point samples equal the
  // air-stamp dn exactly (pass a noise in the spec to see radiotap jitter).
  testbed::ScenarioSpec spec;
  spec.emulated_rtt = Duration::millis(rtt_ms);
  spec.sniffer_noise = Duration{};
  spec.congested_phy = congested;
  testbed::Testbed testbed(spec);
  testbed.settle(Duration::millis(800));
  if (congested) {
    testbed.start_cross_traffic();
    testbed.settle(Duration::seconds(2));
  }

  // Both passive observers attach BEFORE the tool starts: sequential tools
  // send probe 0 synchronously inside start().
  passive::PpingEstimator pping;
  testbed.sniffer(0).attach_capture_observer(&pping);
  passive::PerAppMonitor per_app;
  testbed.phone().exec_env().attach_flow_tap(&per_app);

  tools::MeasurementTool::Config tool_config;
  tool_config.probe_count = probes;
  tool_config.interval = Duration::millis(100);
  tool_config.timeout = Duration::seconds(4);
  tool_config.target = testbed::Testbed::kServerId;
  auto tool = tools::make_tool(*kind, testbed.phone(), tool_config);
  pping.watch_flow(testbed::Testbed::kPhoneId, tool->flow_id(), 0, *kind);
  per_app.watch_flow(testbed::Testbed::kPhoneId, tool->flow_id(), 0, *kind);
  tool->start();
  testbed.run_until_finished(*tool);

  std::vector<double> active;
  for (const auto& probe : tool->result().probes) {
    if (!probe.timed_out) active.push_back(probe.reported_rtt_ms);
  }
  std::vector<double> sniffer_rtt;
  for (const auto& sample : pping.samples()) sniffer_rtt.push_back(sample.rtt_ms);
  std::vector<double> app_rtt;
  for (const auto& sample : per_app.samples()) app_rtt.push_back(sample.rtt_ms);

  std::printf("%s on Fig. 2 (emulated RTT %.0f ms%s), %d probes\n",
              tools::grid_name(*kind), rtt_ms,
              congested ? ", congested WLAN" : "", probes);
  print_row("active (tool-reported du)", active);
  print_row("passive per-app (t_u pair)", app_rtt);
  print_row("passive sniffer (pping dn)", sniffer_rtt);
  if (!sniffer_rtt.empty()) {
    std::printf("  pping min-RTT tracker: %.3f ms, %zu pending, %zu evicted\n",
                pping.min_rtt_ms(0), pping.outstanding(), pping.evicted());
  }
  const bool tcp = !sniffer_rtt.empty() || *kind != tools::ToolKind::icmp_ping;
  if (!tcp) {
    std::printf("  (icmp_ping carries no TCP timestamps; the sniffer "
                "estimator stays silent — pick a TCP tool)\n");
  }
  return 0;
}
