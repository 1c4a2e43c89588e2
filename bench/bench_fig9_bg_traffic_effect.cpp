// Figure 9: CDF of AcuteMon RTTs with and without its background traffic,
// in a congested WLAN, with the SDIO bus sleep disabled in the driver (the
// paper's rooted ablation) so that the only possible difference between the
// two runs is the background traffic itself. A third, uncongested run gives
// the reference curve.
//
// Shape claims: the with/without-background CDFs nearly coincide (the
// background load is negligible); both sit right of the uncongested curve
// (the RTT increase comes from the cross traffic, not from AcuteMon).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "stats/cdf.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"

using namespace acute;

int main() {
  benchx::heading("Figure 9 — effect of AcuteMon's background traffic");

  const auto run = [](bool background, bool cross) {
    testbed::ScenarioSpec spec;
    spec.phones.front().profile = phone::PhoneProfile::nexus5();
    spec.phones.front().workload = {.tool = tools::ToolKind::acutemon,
                                    .probe_count = 100};
    spec.emulated_rtt = sim::Duration::millis(30);
    spec.congested_phy = cross;
    // Nexus 5 Tip ~205ms >> 30ms path: CAM holds without background too.
    return testbed::Experiment::run(
        spec, {.bus_sleep_enabled = false,  // rooted-driver ablation
               .acutemon_background = background});
  };

  const auto with_bg = run(true, true);
  const auto without_bg = run(false, true);
  const auto no_cross = run(true, false);

  stats::Table table({"scenario", "p25", "p50", "p75", "p90", "mean"});
  const auto add = [&](const char* name,
                       const testbed::MultiLayerResult& result) {
    const auto rtts = result.run.reported_rtts_ms();
    const stats::Cdf cdf(rtts);
    table.add_row({name, stats::Table::cell(cdf.quantile(0.25)),
                   stats::Table::cell(cdf.quantile(0.50)),
                   stats::Table::cell(cdf.quantile(0.75)),
                   stats::Table::cell(cdf.quantile(0.90)),
                   benchx::mean_ci(rtts)});
  };
  add("with BG traffic (congested)", with_bg);
  add("without BG traffic (congested)", without_bg);
  add("no cross traffic", no_cross);
  std::printf("%s", table.to_string().c_str());

  const stats::Cdf cdf_with(with_bg.run.reported_rtts_ms());
  const stats::Cdf cdf_without(without_bg.run.reported_rtts_ms());
  std::printf("\nKS distance(with BG, without BG) = %.3f  (small => the "
              "background traffic does not perturb the measurement)\n",
              stats::Cdf::ks_distance(cdf_with, cdf_without));
  return 0;
}
