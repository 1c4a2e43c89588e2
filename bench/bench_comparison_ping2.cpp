// Related-work comparison (§1): ping2 [Sui et al., MobiSys'16] vs AcuteMon.
//
// The paper's claim under test: "ping2 can be used only for network paths
// with short nRTT and cannot remove the inflations completely, because,
// when nRTT is long, the device could fall back to the inactive state again
// before it receives the response packet and starts the second ping."
//
// Sweep the emulated RTT and report the median *overhead* (measured minus
// true network RTT) of ping2's second ping vs AcuteMon, on a Broadcom
// handset (Tis = 50 ms binds) and on the Nexus 4 (Tip ~40 ms binds, where
// long paths additionally hit PSM buffering at the AP).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/acutemon.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"
#include "testbed/testbed.hpp"
#include "tools/ping2.hpp"

using namespace acute;

namespace {

double ping2_overhead(const phone::PhoneProfile& profile, int rtt_ms,
                      std::uint64_t seed) {
  testbed::ScenarioSpec spec;
  spec.phones.front().profile = profile;
  spec.emulated_rtt = sim::Duration::millis(rtt_ms);
  spec.seed = seed;
  testbed::Testbed testbed(spec);
  testbed.settle(sim::Duration::millis(800));

  tools::Ping2Prober::Config p2;
  p2.target = testbed::Testbed::kPhoneId;
  p2.pairs = 60;
  p2.timeout = sim::Duration::seconds(1);
  tools::Ping2Prober prober(testbed.simulator(), testbed.server(), p2);
  prober.start();
  auto& sim = testbed.simulator();
  const auto deadline = sim.now() + sim::Duration::seconds(300);
  while (!prober.finished() && sim.now() < deadline) {
    sim.run_for(sim::Duration::millis(50));
  }
  const double fabric_ms = 1.3;  // wired + air + AP forwarding
  return stats::Summary(prober.result().second_rtts_ms).median() - rtt_ms -
         fabric_ms;
}

double acutemon_overhead(const phone::PhoneProfile& profile, int rtt_ms,
                         std::uint64_t seed) {
  testbed::ScenarioSpec spec;
  spec.phones.front().profile = profile;
  spec.phones.front().workload.tool = tools::ToolKind::acutemon;
  spec.phones.front().workload.probe_count = 60;
  spec.emulated_rtt = sim::Duration::millis(rtt_ms);
  spec.seed = seed;
  const auto result = testbed::Experiment::run(spec);
  return stats::Summary(
             result.values(&core::LayerSample::total_overhead))
      .median();
}

}  // namespace

int main() {
  benchx::heading(
      "Related-work comparison — ping2 [34] vs AcuteMon "
      "(median overhead above the true network RTT, ms)");

  stats::Table table({"emulated RTT", "ping2 N5", "AcuteMon N5", "ping2 N4",
                      "AcuteMon N4"});
  std::uint64_t seed = 70;
  for (const int rtt_ms : {10, 30, 60, 85, 135}) {
    table.add_row(
        {std::to_string(rtt_ms) + "ms",
         stats::Table::cell(
             ping2_overhead(phone::PhoneProfile::nexus5(), rtt_ms, seed++)),
         stats::Table::cell(acutemon_overhead(phone::PhoneProfile::nexus5(),
                                              rtt_ms, seed++)),
         stats::Table::cell(
             ping2_overhead(phone::PhoneProfile::nexus4(), rtt_ms, seed++)),
         stats::Table::cell(acutemon_overhead(phone::PhoneProfile::nexus4(),
                                              rtt_ms, seed++))});
  }
  std::printf("%s", table.to_string().c_str());
  benchx::note(
      "\nExpected, per the paper's critique: ping2 matches AcuteMon on short"
      "\npaths (< Tis), but once the RTT exceeds the bus-sleep timeout the"
      "\nphone re-sleeps between the two pings (~+10ms on Broadcom), and on"
      "\nthe Nexus 4 paths beyond Tip (~40ms) additionally hit PSM buffering"
      "\n(tens of ms). AcuteMon stays < 3ms at every path length.");
  return 0;
}
