// Figure 8: CDFs of the RTT measured by AcuteMon, httping, ping and Java
// ping on the Nexus 5 over a 30 ms emulated path, without (a) and with (b)
// iPerf cross traffic (10 UDP connections x 2.5 Mbit/s — enough to congest
// an 802.11g WLAN; the paper measured only ~10 Mbit/s of goodput).
//
// Shape claims: AcuteMon dominates every other tool in both scenarios
// (~90% of its RTTs < 35 ms without load; the other tools sit >10 ms to the
// right); with cross traffic all curves shift right but the ordering holds.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "stats/cdf.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"

using namespace acute;

namespace {

void run_scenario(bool cross_traffic) {
  benchx::heading(cross_traffic
                      ? "Figure 8(b) — with cross traffic"
                      : "Figure 8(a) — without cross traffic");
  stats::Table table({"tool", "p10", "p25", "p50", "p75", "p90", "max",
                      "P(rtt<35ms)"});
  const tools::ToolKind kinds[] = {
      tools::ToolKind::acutemon, tools::ToolKind::httping,
      tools::ToolKind::icmp_ping, tools::ToolKind::java_ping};

  double throughput = 0;
  for (const auto kind : kinds) {
    testbed::ScenarioSpec spec;
    spec.phones.front().profile = phone::PhoneProfile::nexus5();
    spec.phones.front().workload = {.tool = kind, .probe_count = 100};
    spec.emulated_rtt = sim::Duration::millis(30);
    spec.congested_phy = cross_traffic;
    const auto result = testbed::Experiment::run(spec);
    throughput = std::max(throughput, result.cross_throughput_mbps);

    const auto rtts = result.run.reported_rtts_ms();
    const stats::Cdf cdf(rtts);
    table.add_row({to_string(kind), stats::Table::cell(cdf.quantile(0.10)),
                   stats::Table::cell(cdf.quantile(0.25)),
                   stats::Table::cell(cdf.quantile(0.50)),
                   stats::Table::cell(cdf.quantile(0.75)),
                   stats::Table::cell(cdf.quantile(0.90)),
                   stats::Table::cell(cdf.sorted().back()),
                   stats::Table::cell(cdf.at(35.0), 2)});
  }
  std::printf("%s", table.to_string().c_str());
  if (cross_traffic) {
    std::printf("cross-traffic goodput: %.1f Mbit/s of %.1f offered\n",
                throughput, 25.0);
  }
}

}  // namespace

int main() {
  run_scenario(false);
  run_scenario(true);
  benchx::note(
      "\nShape check: AcuteMon's CDF sits >10ms left of every other tool in"
      "\nboth scenarios; cross traffic shifts all curves right and the WLAN"
      "\nsaturates near ~10 Mbit/s as in §4.3.");
  return 0;
}
