// Table 3: dvsend and dvrecv measured by the (modified) Nexus 5 driver with
// the SDIO bus sleep enabled and disabled, at 10 ms and 1 s sending
// intervals (100 ICMP probes each).
//
// Shape claims: with sleep enabled and a 1 s interval, both dvsend and
// dvrecv jump to ~10-14 ms (the bus wake-up); disabling the sleep pins both
// near their base costs (~0.2-0.8 ms send, ~1.6-2 ms receive) regardless of
// the sending rate.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "testbed/experiment.hpp"

using namespace acute;

namespace {

struct PaperRow {
  const char* type;
  const char* sleep;
  const char* interval;
  double min, mean, max;
};

constexpr PaperRow kPaper[] = {
    {"dvsend", "Enabled", "10ms", 0.096, 0.321, 10.184},
    {"dvsend", "Enabled", "1000ms", 0.139, 10.151, 13.547},
    {"dvsend", "Disabled", "10ms", 0.092, 0.229, 0.836},
    {"dvsend", "Disabled", "1000ms", 0.139, 0.720, 0.858},
    {"dvrecv", "Enabled", "10ms", 0.314, 1.635, 2.827},
    {"dvrecv", "Enabled", "1000ms", 0.368, 12.754, 14.224},
    {"dvrecv", "Disabled", "10ms", 0.311, 1.589, 2.651},
    {"dvrecv", "Disabled", "1000ms", 0.362, 1.756, 2.088},
};

std::string triple(double min, double mean, double max) {
  return stats::Table::cell(min, 3) + " / " + stats::Table::cell(mean, 3) +
         " / " + stats::Table::cell(max, 3);
}

}  // namespace

int main() {
  benchx::heading(
      "Table 3 — Nexus 5 driver delays dvsend/dvrecv (min/mean/max, ms)");

  stats::Table table(
      {"type", "bus sleep", "interval", "paper (min/mean/max)",
       "ours (min/mean/max)"});

  for (const bool enabled : {true, false}) {
    for (const int interval_ms : {10, 1000}) {
      testbed::ScenarioSpec spec;
      spec.phones.front().profile = phone::PhoneProfile::nexus5();
      spec.phones.front().workload = {
          .probe_count = 100, .interval = sim::Duration::millis(interval_ms)};
      spec.emulated_rtt = sim::Duration::millis(60);
      const auto result =
          testbed::Experiment::run(spec, {.bus_sleep_enabled = enabled});

      const auto emit = [&](const char* type,
                            const std::vector<double>& values) {
        const stats::Summary summary(values);
        for (const PaperRow& row : kPaper) {
          if (std::string(row.type) == type &&
              (std::string(row.sleep) == "Enabled") == enabled &&
              std::string(row.interval) ==
                  (interval_ms == 10 ? "10ms" : "1000ms")) {
            table.add_row({type, enabled ? "Enabled" : "Disabled",
                           interval_ms == 10 ? "10ms" : "1000ms",
                           triple(row.min, row.mean, row.max),
                           triple(summary.min(), summary.mean(),
                                  summary.max())});
          }
        }
      };
      emit("dvsend", result.dvsend_ms);
      emit("dvrecv", result.dvrecv_ms);
    }
  }
  std::printf("%s", table.to_string().c_str());
  benchx::note(
      "\nShape check: enabled/1s means ~10-13ms (wake-up dominates);"
      "\ndisabled rows stay at base cost at every rate.");
  return 0;
}
