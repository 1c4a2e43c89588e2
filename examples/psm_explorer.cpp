// Reproduces: Table 4 (black-box inference of Tip, Tis and the listen
// intervals) plus the Fig. 4/Fig. 5 interval-sweep behavior that motivates
// it.
//
// PSM/SDIO explorer: visualize *why* naive measurements inflate, for any
// handset. Sweeps the probe interval against one path and prints how the
// user-level RTT decomposes per layer, then infers the handset's
// energy-saving timeouts black-box (the paper's Table 4 methodology).
//
// Usage: ./build/examples/psm_explorer ["Phone Name"]
//        (default "Google Nexus 4" — the aggressive-PSM outlier)
#include <cstdio>
#include <string>

#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"

using namespace acute;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "Google Nexus 4";
  phone::PhoneProfile profile;
  try {
    profile = phone::PhoneProfile::by_name(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\nKnown handsets:\n", e.what());
    for (const auto& p : phone::PhoneProfile::all()) {
      std::fprintf(stderr, "  \"%s\"\n", p.name.c_str());
    }
    return 1;
  }

  std::printf("=== %s (%s, %s driver) ===\n", profile.name.c_str(),
              profile.chipset.c_str(), to_string(profile.vendor));

  // 1) Interval sweep: where do the energy-saving penalties kick in?
  std::printf("\nProbe-interval sweep over a 60 ms path "
              "(100 ICMP probes each):\n");
  stats::Table table({"interval", "du (user)", "dn (network)",
                      "du-dn (internal)", "dn-60 (external/PSM)"});
  for (const int interval_ms : {10, 25, 60, 120, 250, 500, 1000}) {
    testbed::ScenarioSpec spec;
    spec.phones.front().profile = profile;
    spec.phones.front().workload = {
        .probe_count = 100, .interval = sim::Duration::millis(interval_ms)};
    spec.emulated_rtt = sim::Duration::millis(60);
    const auto result = testbed::Experiment::run(spec);
    const stats::Summary du(result.values(&core::LayerSample::du_ms));
    const stats::Summary dn(result.values(&core::LayerSample::dn_ms));
    table.add_row({std::to_string(interval_ms) + "ms",
                   stats::Table::cell(du.median()),
                   stats::Table::cell(dn.median()),
                   stats::Table::cell(du.median() - dn.median()),
                   stats::Table::cell(dn.mean() - 60.0)});
  }
  std::printf("%s", table.to_string().c_str());

  // 2) Black-box timeout inference (Table 4 + the paper's future work).
  std::printf("\nInferring energy-saving timeouts (black-box)...\n");
  const auto inference = testbed::Experiment::infer_timeouts(profile);
  std::printf("  PSM timeout Tip:      ~%.0f ms  (profile: %.1f ms)\n",
              inference.psm_timeout.to_ms(), profile.psm_timeout.to_ms());
  std::printf("  Bus-sleep timeout Tis: ~%.0f ms (driver default: %.0f ms)\n",
              inference.bus_sleep_timeout.to_ms(),
              profile.bus_sleep_idle().to_ms());
  std::printf("  Listen interval:      announced %d, actually %d\n",
              inference.listen_associated, inference.listen_actual);
  std::printf(
      "\nAcuteMon needs dpre and db below min(Tis, Tip) = %.0f ms; the\n"
      "paper's empirical 20 ms works for every handset in Table 1.\n",
      std::min(inference.bus_sleep_timeout.to_ms(),
               inference.psm_timeout.to_ms()));
  return 0;
}
