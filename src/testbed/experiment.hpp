// Single-run experiments: Experiment::run reproduces one experimental
// condition from the paper's evaluation, described by a ScenarioSpec, and
// returns per-probe multi-layer samples. The bench binaries compose runs
// into the paper's tables and figures; the integration tests assert the
// shape claims on them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/layer_sample.hpp"
#include "phone/profile.hpp"
#include "testbed/testbed.hpp"
#include "tools/tool.hpp"

namespace acute::testbed {

/// A tool run plus its layer decomposition.
struct MultiLayerResult {
  tools::ToolRun run;
  std::vector<core::LayerSample> samples;
  /// The driver's dvsend / dvrecv logs for the tool run (§3.2.1).
  std::vector<double> dvsend_ms;
  std::vector<double> dvrecv_ms;
  /// Goodput the cross traffic achieved during the run (0 when none ran).
  double cross_throughput_mbps = 0;

  [[nodiscard]] std::vector<double> values(
      double (core::LayerSample::*field)() const) const {
    return core::extract(samples, field);
  }
  [[nodiscard]] std::vector<double> values(
      double core::LayerSample::*field) const {
    return core::extract(samples, field);
  }
};

/// The single-run knobs a ScenarioSpec has no field for: the paper's
/// rooted-phone ablations (Table 3, Fig. 9).
struct Ablation {
  /// false = the rooted driver with dhdsdio_bussleep disabled.
  bool bus_sleep_enabled = true;
  /// false = AcuteMon without its background thread.
  bool acutemon_background = true;
};

class Experiment {
 public:
  /// One phone, one tool: builds `spec`, lets the phone idle until both
  /// demotion timers have fired, starts the cross traffic and lets it
  /// saturate iff `spec.congested_phy`, then runs the tool phone 0's
  /// WorkloadSpec selects to completion. Workload fields left at zero fall
  /// back to 100 probes, a 1 s interval and a 1 s timeout. The driver logs
  /// cover the tool run only. Requires exactly one WiFi phone and no
  /// passive vantage (multi-phone and passive runs belong to Campaign).
  [[nodiscard]] static MultiLayerResult run(const ScenarioSpec& spec,
                                            const Ablation& ablation = {});

  /// Table 4: black-box inference of Tip, Tis and the listen intervals.
  struct TimeoutInference {
    sim::Duration psm_timeout;        // inferred Tip
    sim::Duration bus_sleep_timeout;  // inferred Tis
    int listen_associated = 0;
    int listen_actual = 0;
  };
  [[nodiscard]] static TimeoutInference infer_timeouts(
      const phone::PhoneProfile& profile, std::uint64_t seed = 42);
};

}  // namespace acute::testbed
