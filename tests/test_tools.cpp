// Measurement tools: probe schedules, reporting quirks, timeout handling.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/acutemon.hpp"
#include "stats/summary.hpp"
#include "testbed/testbed.hpp"
#include "tools/httping.hpp"
#include "tools/java_ping.hpp"
#include "tools/ping.hpp"

namespace acute::tools {
namespace {

using namespace acute::sim::literals;
using sim::Duration;
using testbed::Testbed;

MeasurementTool::Config tool_config(int probes, Duration interval) {
  MeasurementTool::Config config;
  config.probe_count = probes;
  config.interval = interval;
  config.timeout = 1_s;
  config.target = Testbed::kServerId;
  return config;
}

TEST(QuantizePingOutput, ResolutionAndTruncation) {
  EXPECT_DOUBLE_EQ(quantize_ping_output(33.17, 0.1, false), 33.1);
  EXPECT_DOUBLE_EQ(quantize_ping_output(33.17, 0.1, true), 33.1);
  EXPECT_DOUBLE_EQ(quantize_ping_output(133.96, 0.1, true), 133.0);
  EXPECT_DOUBLE_EQ(quantize_ping_output(133.96, 0.1, false), 133.9);
  EXPECT_DOUBLE_EQ(quantize_ping_output(99.99, 0.1, true), 99.9);
  EXPECT_DOUBLE_EQ(quantize_ping_output(5.0, 0.0, false), 5.0);
}

TEST(IcmpPing, CompletesAllProbes) {
  Testbed testbed;
  testbed.settle(500_ms);
  IcmpPing ping(testbed.phone(), tool_config(20, 10_ms));
  bool done = false;
  ping.start([&](const ToolRun& run) {
    done = true;
    EXPECT_EQ(run.probes.size(), 20u);
  });
  testbed.run_until_finished(ping);
  EXPECT_TRUE(done);
  EXPECT_TRUE(ping.finished());
  EXPECT_EQ(ping.result().loss_count(), 0u);
  EXPECT_EQ(ping.result().tool_name, "ping");
}

TEST(IcmpPing, ProbesAreOrderedByIndex) {
  Testbed testbed;
  testbed.settle(500_ms);
  IcmpPing ping(testbed.phone(), tool_config(10, 10_ms));
  ping.start();
  testbed.run_until_finished(ping);
  const auto& probes = ping.result().probes;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probes[i].index, int(i));
  }
}

TEST(IcmpPing, PeriodicScheduleIgnoresResponses) {
  // Emulated RTT (200 ms) far exceeds the 50 ms interval: probes overlap.
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 200_ms;
  Testbed testbed(scenario);
  testbed.settle(500_ms);
  IcmpPing ping(testbed.phone(), tool_config(10, 50_ms));
  const auto start = testbed.simulator().now();
  ping.start();
  testbed.run_until_finished(ping);
  // Send window = 9 * 50 ms; with per-probe RTT ~200 ms the whole run ends
  // within ~0.7 s, proving sends were not serialized behind responses.
  EXPECT_LT((testbed.simulator().now() - start).to_ms(), 750.0);
  EXPECT_EQ(ping.result().loss_count(), 0u);
}

TEST(IcmpPing, ReportsQuantizedValuesOnNexus4Above100ms) {
  testbed::ScenarioSpec scenario;
  scenario.phones.front().profile = phone::PhoneProfile::nexus4();
  scenario.emulated_rtt = 150_ms;
  Testbed testbed(scenario);
  testbed.settle(500_ms);
  IcmpPing ping(testbed.phone(), tool_config(10, 10_ms));
  ping.start();
  testbed.run_until_finished(ping);
  for (const double rtt : ping.result().reported_rtts_ms()) {
    EXPECT_DOUBLE_EQ(rtt, std::floor(rtt));  // whole milliseconds
    EXPECT_GT(rtt, 100.0);
  }
}

TEST(IcmpPing, LostProbesAreRecordedAsTimeouts) {
  Testbed testbed;
  testbed.server().netem().set_loss(0.5);
  testbed.settle(500_ms);
  IcmpPing ping(testbed.phone(), tool_config(30, 10_ms));
  ping.start();
  testbed.run_until_finished(ping);
  EXPECT_GT(ping.result().loss_count(), 2u);
  EXPECT_LT(ping.result().loss_count(), 28u);
  EXPECT_EQ(ping.result().probes.size(), 30u);
  EXPECT_EQ(ping.result().success_count() + ping.result().loss_count(), 30u);
}

TEST(HttPing, FirstProbeConnectsThenReuses) {
  Testbed testbed;
  testbed.settle(500_ms);
  HttPing httping(testbed.phone(), tool_config(5, 10_ms));
  httping.start();
  testbed.run_until_finished(httping);
  EXPECT_EQ(httping.result().probes.size(), 5u);
  EXPECT_EQ(httping.result().loss_count(), 0u);
  // Every reported probe is an HTTP exchange (response carried stamps).
  for (const auto& probe : httping.result().probes) {
    ASSERT_TRUE(probe.response.has_value());
    EXPECT_EQ(probe.response->type, net::PacketType::http_response);
  }
  EXPECT_EQ(testbed.server().requests_served(), 6u);  // 1 SYN + 5 GETs
}

TEST(JavaPing, ReportsWholeMilliseconds) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 30_ms;
  Testbed testbed(scenario);
  testbed.settle(500_ms);
  JavaPing java(testbed.phone(), tool_config(10, 10_ms));
  java.start();
  testbed.run_until_finished(java);
  for (const double rtt : java.result().reported_rtts_ms()) {
    EXPECT_DOUBLE_EQ(rtt, std::floor(rtt));
  }
  EXPECT_EQ(java.result().tool_name, "Java ping");
}

TEST(JavaPing, DalvikOverheadExceedsNative) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 30_ms;
  scenario.seed = 7;
  Testbed testbed(scenario);
  testbed.settle(500_ms);
  // Sequential with a 10 ms gap, so SDIO never sleeps: the difference
  // between the two tools is (mostly) the runtime overhead.
  JavaPing java(testbed.phone(), tool_config(30, 10_ms));
  java.start();
  testbed.run_until_finished(java);

  const testbed::ScenarioSpec scenario2 = scenario;
  Testbed testbed2(scenario2);
  testbed2.settle(500_ms);
  HttPing native(testbed2.phone(), tool_config(30, 10_ms));
  native.start();
  testbed2.run_until_finished(native);

  const double java_mean =
      stats::Summary(java.result().reported_rtts_ms()).mean();
  const double native_mean =
      stats::Summary(native.result().reported_rtts_ms()).mean();
  EXPECT_GT(java_mean, native_mean);
}

TEST(ToolRun, HelpersCountCorrectly) {
  ToolRun run;
  run.probes.push_back({0, 10.0, false, std::nullopt});
  run.probes.push_back({1, 0.0, true, std::nullopt});
  run.probes.push_back({2, 12.0, false, std::nullopt});
  EXPECT_EQ(run.loss_count(), 1u);
  EXPECT_EQ(run.success_count(), 2u);
  EXPECT_EQ(run.reported_rtts_ms(), (std::vector<double>{10.0, 12.0}));
}

TEST(MeasurementTool, StartTwiceViolatesContract) {
  Testbed testbed;
  testbed.settle(500_ms);
  IcmpPing ping(testbed.phone(), tool_config(2, 10_ms));
  ping.start();
  EXPECT_THROW(ping.start(), sim::ContractViolation);
  testbed.run_until_finished(ping);
}

TEST(MeasurementTool, StartGuardCoversRichLaunchProtocols) {
  // The once-only guard lives in the non-virtual start() entry, so a tool
  // whose launch is *deferred* (AcuteMon arms its probe schedule only after
  // the warm-up lead) trips immediately on the second call — it cannot
  // slip a second schedule in before the first one arms.
  Testbed testbed;
  testbed.settle(500_ms);
  core::AcuteMon monitor(testbed.phone(), tool_config(2, 10_ms));
  monitor.start();
  EXPECT_THROW(monitor.start(), sim::ContractViolation);
  testbed.run_until_finished(monitor);
  EXPECT_TRUE(monitor.finished());
  EXPECT_EQ(monitor.result().probes.size(), 2u);
}

TEST(MeasurementTool, ConfigContracts) {
  Testbed testbed;
  auto config = tool_config(0, 10_ms);
  EXPECT_THROW(IcmpPing(testbed.phone(), config), sim::ContractViolation);
}

}  // namespace
}  // namespace acute::tools
