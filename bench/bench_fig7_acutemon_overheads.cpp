// Figure 7: box plots of AcuteMon's Δd(u-k) and Δd(k-n) on the Nexus 5,
// Samsung Grand and Nexus 4 at emulated RTTs of 20 / 50 / 85 / 135 ms.
//
// Shape claims: Δd(u-k) < 0.5 ms on fast phones, < 1 ms even on the slow
// ones; Δd(k-n) medians < 2 ms with upper whiskers < 3 ms (Qualcomm phones
// as low as ~0.8 ms; the Sony Xperia J may reach 4 ms) — and, crucially,
// the overheads are independent of the emulated RTT.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "stats/boxplot.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"

using namespace acute;

int main() {
  benchx::heading(
      "Figure 7 — AcuteMon overhead box plots (Δd(u-k) and Δd(k-n), ms)");

  const struct {
    const char* name;
  } phones[] = {{"Google Nexus 5"}, {"Samsung Grand"}, {"Google Nexus 4"}};

  stats::Table table({"phone", "emulated", "metric", "median", "q1", "q3",
                      "whisk-lo", "whisk-hi"});
  for (const auto& [name] : phones) {
    const auto profile = phone::PhoneProfile::by_name(name);
    for (const int rtt_ms : {20, 50, 85, 135}) {
      testbed::ScenarioSpec spec;
      spec.phones.front().profile = profile;
      spec.phones.front().workload = {.tool = tools::ToolKind::acutemon,
                                      .probe_count = 100};
      spec.emulated_rtt = sim::Duration::millis(rtt_ms);
      const auto result = testbed::Experiment::run(spec);

      const auto add = [&](const char* metric,
                           const std::vector<double>& values) {
        const auto box = stats::BoxPlot::from_sample(values);
        table.add_row({name, std::to_string(rtt_ms) + "ms(" +
                                 (metric[1] == 'u' ? "u" : "k") + ")",
                       metric, stats::Table::cell(box.median),
                       stats::Table::cell(box.q1),
                       stats::Table::cell(box.q3),
                       stats::Table::cell(box.whisker_low),
                       stats::Table::cell(box.whisker_high)});
      };
      add("du-k", result.values(&core::LayerSample::du_k));
      add("dk-n", result.values(&core::LayerSample::dk_n));
    }
  }
  std::printf("%s", table.to_string().c_str());
  benchx::note(
      "\nShape check: du-k < ~0.5ms (<1ms on slow CPUs); dk-n medians < 2ms"
      "\nand whiskers < ~3-4ms; both independent of the emulated RTT, so a"
      "\nsingle calibration per handset corrects the user-level RTT.");
  return 0;
}
