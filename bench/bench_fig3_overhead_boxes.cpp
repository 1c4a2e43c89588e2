// Figure 3: box plots of the kernel-phy overhead Δd(k-n) and the user-kernel
// overhead Δd(u-k) for the Nexus 4 and Nexus 5 at emulated RTTs of 30 ms and
// 60 ms, with 10 ms and 1 s sending intervals.
//
// Shape claims: Δd(k-n) < ~4 ms at the 10 ms interval for both phones; at
// the 1 s interval the Nexus 5's Δd(k-n) median is much larger than the
// Nexus 4's (~18 ms vs ~6 ms at 60 ms emulated; ~12 ms vs ~6 ms at 30 ms);
// Δd(u-k) stays within ±1 ms everywhere (and can go *negative* on the
// Nexus 4 above 100 ms because its ping truncates to whole milliseconds).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "stats/boxplot.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"

using namespace acute;

int main() {
  benchx::heading("Figure 3 — overhead box plots (all values in ms)");

  stats::Table table({"phone", "rtt", "intv", "metric", "median", "q1", "q3",
                      "whisk-lo", "whisk-hi", "outliers"});

  const struct {
    const char* name;
    phone::PhoneProfile profile;
  } phones[] = {{"Nexus 4", phone::PhoneProfile::nexus4()},
                {"Nexus 5", phone::PhoneProfile::nexus5()}};

  for (const int rtt_ms : {30, 60}) {
    for (const auto& [name, profile] : phones) {
      for (const int interval_ms : {10, 1000}) {
        testbed::ScenarioSpec spec;
        spec.phones.front().profile = profile;
        spec.phones.front().workload = {
            .probe_count = 100,
            .interval = sim::Duration::millis(interval_ms)};
        spec.emulated_rtt = sim::Duration::millis(rtt_ms);
        const auto result = testbed::Experiment::run(spec);

        const auto add = [&](const char* metric,
                             const std::vector<double>& values) {
          const auto box = stats::BoxPlot::from_sample(values);
          table.add_row({name, std::to_string(rtt_ms) + "ms",
                         interval_ms == 10 ? "10ms" : "1s", metric,
                         stats::Table::cell(box.median),
                         stats::Table::cell(box.q1),
                         stats::Table::cell(box.q3),
                         stats::Table::cell(box.whisker_low),
                         stats::Table::cell(box.whisker_high),
                         std::to_string(box.outliers.size())});
        };
        add("dk-n", result.values(&core::LayerSample::dk_n));
        add("du-k", result.values(&core::LayerSample::du_k));
      }
    }
  }
  std::printf("%s", table.to_string().c_str());
  benchx::note(
      "\nPaper reference points: dk-n medians ~2-4ms at 10ms interval;"
      "\nat 1s: Nexus 5 ~12ms (30ms RTT) and ~18ms (60ms RTT), Nexus 4 ~6ms;"
      "\ndu-k within +/-1ms (negative values possible on Nexus 4 >100ms).");
  return 0;
}
