// Ablation of the PSM model's calibration knobs (DESIGN.md §2):
//  * beacon_miss_probability — drives the extra-cycle tail of PSM waits.
//    The paper's Nexus 4 @ 60 ms / 1 s cell (dn = 130.03 ms) sits between
//    the ideal miss-free model (~112 ms) and heavy clock drift.
//  * PSM tick quantization — the doze entry in [Tip - tick, Tip] is what
//    makes the 30 ms cell only *partially* inflate.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"

using namespace acute;

int main() {
  benchx::heading(
      "Ablation — beacon-miss probability vs Nexus 4 external inflation");
  stats::Table table({"beacon_miss_prob", "dn @60ms/1s (paper: 130.03)",
                      "dn @30ms/1s (paper: 42.58)"});
  for (const double miss : {0.0, 0.07, 0.15, 0.30}) {
    phone::PhoneProfile profile = phone::PhoneProfile::nexus4();
    profile.beacon_miss_probability = miss;

    testbed::ScenarioSpec spec60;
    spec60.phones.front().profile = profile;
    spec60.emulated_rtt = sim::Duration::millis(60);
    spec60.phones.front().workload.interval = sim::Duration::seconds(1);
    const auto at60 = testbed::Experiment::run(spec60);

    testbed::ScenarioSpec spec30 = spec60;
    spec30.emulated_rtt = sim::Duration::millis(30);
    const auto at30 = testbed::Experiment::run(spec30);

    table.add_row(
        {stats::Table::cell(miss, 2),
         benchx::mean_ci(at60.values(&core::LayerSample::dn_ms)),
         benchx::mean_ci(at30.values(&core::LayerSample::dn_ms))});
  }
  std::printf("%s", table.to_string().c_str());
  benchx::note(
      "\nThe default 0.15 lands the 60ms cell nearest the paper; the effect"
      "\nis monotone, so the knob is identifiable from the data.");

  benchx::heading(
      "Ablation — PSM tick quantization vs the partially-inflated cell");
  stats::Table tick_table(
      {"psm tick", "P(inflated) @30ms/1s", "dn mean @30ms/1s"});
  for (const int tick_ms : {1, 5, 10, 20}) {
    phone::PhoneProfile profile = phone::PhoneProfile::nexus4();
    // Doze entry quantizes to [Tip - tick, Tip]: a wider tick widens the
    // race window against the ~36 ms response arrival.
    profile.psm_tick = sim::Duration::millis(tick_ms);
    testbed::ScenarioSpec spec;
    spec.phones.front().profile = profile;
    spec.emulated_rtt = sim::Duration::millis(30);
    spec.phones.front().workload.interval = sim::Duration::seconds(1);
    spec.seed = 42 + tick_ms;
    const auto result = testbed::Experiment::run(spec);
    const auto dn = result.values(&core::LayerSample::dn_ms);
    int inflated = 0;
    for (const double v : dn) {
      if (v > 45.0) ++inflated;
    }
    tick_table.add_row({std::to_string(tick_ms) + "ms",
                        stats::Table::cell(double(inflated) / dn.size(), 2),
                        benchx::mean_ci(dn)});
  }
  std::printf("%s", tick_table.to_string().c_str());
  benchx::note(
      "\nWith the response arriving ~36ms after the send and the doze entry"
      "\nin [29.5, 39.5]ms, roughly one probe in six races past the doze —"
      "\nreproducing the paper's wide-CI 42.58 +/- 4.28 cell.");
  return 0;
}
