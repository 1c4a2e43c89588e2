// Canned experiments: each public entry point reproduces one experimental
// condition from the paper's evaluation and returns per-probe multi-layer
// samples. The bench binaries compose these into the paper's tables and
// figures; the integration tests assert the shape claims on them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/acutemon.hpp"
#include "core/layer_sample.hpp"
#include "phone/profile.hpp"
#include "testbed/testbed.hpp"
#include "tools/factory.hpp"
#include "tools/tool.hpp"

namespace acute::testbed {

/// A tool run plus its layer decomposition.
struct MultiLayerResult {
  tools::ToolRun run;
  std::vector<core::LayerSample> samples;
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

class Experiment {
 public:
  /// §3.1: ICMP ping through the testbed at a given emulated RTT and
  /// sending interval (Table 2, Fig. 3).
  struct PingSpec {
    phone::PhoneProfile profile = phone::PhoneProfile::nexus5();
    sim::Duration emulated_rtt = sim::Duration::millis(30);
    sim::Duration interval = sim::Duration::seconds(1);
    int probes = 100;
    std::uint64_t seed = 42;
  };
  [[nodiscard]] static MultiLayerResult ping(const PingSpec& spec);

  /// §3.2.1: the modified-driver measurement of dvsend / dvrecv with bus
  /// sleep enabled or disabled (Table 3).
  struct DriverDelaySpec {
    phone::PhoneProfile profile = phone::PhoneProfile::nexus5();
    sim::Duration interval = sim::Duration::seconds(1);
    bool bus_sleep_enabled = true;
    sim::Duration emulated_rtt = sim::Duration::millis(60);
    int probes = 100;
    std::uint64_t seed = 42;
  };
  struct DriverDelayResult {
    std::vector<double> dvsend_ms;
    std::vector<double> dvrecv_ms;
  };
  [[nodiscard]] static DriverDelayResult driver_delays(
      const DriverDelaySpec& spec);

  /// §4.2-§4.4: an AcuteMon run (Table 5, Fig. 7, Fig. 8, Fig. 9).
  struct AcuteMonSpec {
    phone::PhoneProfile profile = phone::PhoneProfile::nexus5();
    sim::Duration emulated_rtt = sim::Duration::millis(30);
    int probes = 100;
    bool cross_traffic = false;
    bool background_enabled = true;  // Fig. 9 ablation
    bool bus_sleep_enabled = true;   // Fig. 9 ablation (rooted driver)
    core::AcuteMon::ProbeMethod method =
        core::AcuteMon::ProbeMethod::tcp_connect;
    std::uint64_t seed = 42;
  };
  [[nodiscard]] static MultiLayerResult acutemon(const AcuteMonSpec& spec);

  /// §4.3: one of the four tools, with or without cross traffic (Fig. 8).
  struct ToolSpec {
    tools::ToolKind kind = tools::ToolKind::acutemon;
    phone::PhoneProfile profile = phone::PhoneProfile::nexus5();
    sim::Duration emulated_rtt = sim::Duration::millis(30);
    int probes = 100;
    bool cross_traffic = false;
    sim::Duration interval = sim::Duration::seconds(1);
    std::uint64_t seed = 42;
  };
  [[nodiscard]] static MultiLayerResult tool(const ToolSpec& spec);

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
