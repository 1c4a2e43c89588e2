// Reproduces: Fig. 1's vantage-point decomposition under the §3.1 (stock
// ping, Table 2/Fig. 3 conditions) and §4.2 (AcuteMon, Table 5 conditions)
// experiments — one 30 ms path measured both ways, du/dk/dn printed side by
// side.
//
// Quickstart: measure a 30 ms path from a simulated Nexus 5, first with the
// stock ping (inflated by SDIO bus sleep + PSM) and then with AcuteMon,
// and print the multi-layer decomposition of both.
//
// Build & run:   ./build/example_quickstart
#include <cstdio>

#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"

using namespace acute;

namespace {

void print_result(const char* label,
                  const testbed::MultiLayerResult& result) {
  const stats::Summary du(result.values(&core::LayerSample::du_ms));
  std::printf("%s\n", label);
  std::printf("  probes ok: %zu   lost: %zu\n", result.run.success_count(),
              result.run.loss_count());
  std::printf("  du (user RTT):  mean %s ms, median %.2f ms\n",
              du.mean_ci_string().c_str(), du.median());
  const stats::Summary dk(result.values(&core::LayerSample::dk_ms));
  const stats::Summary dn(result.values(&core::LayerSample::dn_ms));
  std::printf("  dk (kernel):    mean %s ms\n", dk.mean_ci_string().c_str());
  std::printf("  dn (network):   mean %s ms\n", dn.mean_ci_string().c_str());
  const stats::Summary overhead(result.values(&core::LayerSample::dk_n));
  std::printf("  kernel-phy overhead: median %.2f ms\n\n", overhead.median());
}

}  // namespace

int main() {
  constexpr int kProbes = 100;
  const auto rtt = acute::sim::Duration::millis(30);

  std::printf("=== AcuteMon quickstart: Nexus 5, emulated RTT 30 ms ===\n\n");

  // 1) Stock ping at the 1 s default interval: the phone sleeps between
  //    probes and every probe pays the wake-up penalties (§3.1).
  testbed::ScenarioSpec spec;
  spec.emulated_rtt = rtt;
  spec.phones.front().workload = {
      .tool = tools::ToolKind::icmp_ping,
      .probe_count = kProbes,
      .interval = acute::sim::Duration::seconds(1)};
  print_result("ping -i 1 (energy-saving penalties land on every probe):",
               testbed::Experiment::run(spec));

  // 2) Same path measured by AcuteMon: warm-up + background traffic keep
  //    the phone awake, overhead stays within ~3 ms (§4.2).
  spec.phones.front().workload = {.tool = tools::ToolKind::acutemon,
                                  .probe_count = kProbes};
  print_result("AcuteMon (warm-up + 20 ms background traffic):",
               testbed::Experiment::run(spec));

  std::printf("The network-level RTT is ~31 ms in both runs; only AcuteMon's "
              "user-level RTT stays near it.\n");
  return 0;
}
