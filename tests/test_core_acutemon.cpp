// AcuteMon behaviour (§4.1) and its headline accuracy property (§4.2):
// warm-up timing, background cadence, TTL=1 containment, and the
// <3 ms median overhead across handsets and path lengths.
#include <gtest/gtest.h>

#include <vector>

#include "core/acutemon.hpp"
#include "core/layer_sample.hpp"
#include "stats/summary.hpp"
#include "testbed/experiment.hpp"
#include "testbed/testbed.hpp"

namespace acute::core {
namespace {

using namespace acute::sim::literals;
using sim::Duration;
using testbed::Testbed;

tools::MeasurementTool::Config mt_config(int probes) {
  tools::MeasurementTool::Config config;
  config.probe_count = probes;
  config.timeout = 1_s;
  config.target = Testbed::kServerId;
  return config;
}

TEST(AcuteMon, WarmupPrecedesFirstProbeByDpre) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 30_ms;
  Testbed testbed(scenario);
  testbed.settle(800_ms);
  AcuteMon monitor(testbed.phone(), mt_config(5));
  const auto start = testbed.simulator().now();
  monitor.start();
  EXPECT_TRUE(monitor.warmup_sent());
  testbed.run_until_finished(monitor);
  // First probe left dpre = 20 ms after the warm-up.
  const auto samples = testbed.layer_samples(monitor.result());
  ASSERT_FALSE(samples.empty());
  const auto& first = monitor.result().probes.front();
  ASSERT_TRUE(first.response.has_value());
  const auto app_send = first.response->request_stamps->app_send;
  ASSERT_TRUE(app_send.has_value());
  EXPECT_NEAR((*app_send - start).to_ms(), 20.0, 0.5);
}

TEST(AcuteMon, BackgroundCadenceMatchesPaperEstimate) {
  // §4.1: K = 5 probes on a 100 ms path -> ~25 background packets.
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 100_ms;
  Testbed testbed(scenario);
  testbed.settle(800_ms);
  AcuteMon monitor(testbed.phone(), mt_config(5));
  monitor.start();
  testbed.run_until_finished(monitor);
  EXPECT_NEAR(double(monitor.background_packets_sent()), 25.0, 6.0);
}

TEST(AcuteMon, KeepAlivesDieAtTheGateway) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 50_ms;
  Testbed testbed(scenario);
  testbed.phone().set_system_traffic_enabled(false);
  testbed.settle(800_ms);
  const auto drops_before = testbed.ap().ttl_drops();
  const auto served_before = testbed.server().requests_served();
  AcuteMon monitor(testbed.phone(), mt_config(10));
  monitor.start();
  testbed.run_until_finished(monitor);
  // warm-up + every background packet died at the AP...
  EXPECT_EQ(testbed.ap().ttl_drops() - drops_before,
            1 + monitor.background_packets_sent());
  // ...and the server saw exactly the K probes.
  EXPECT_EQ(testbed.server().requests_served() - served_before, 10u);
}

TEST(AcuteMon, PhoneNeverDozesDuringMeasurement) {
  testbed::ScenarioSpec scenario;
  scenario.phones.front().profile =
      phone::PhoneProfile::nexus4();  // Tip ~40 ms
  scenario.emulated_rtt = 135_ms;     // longer than Tip
  Testbed testbed(scenario);
  testbed.settle(800_ms);
  const auto dozes_before = testbed.phone().station().doze_count();
  const auto sleeps_before = testbed.phone().bus().sleep_count();
  AcuteMon monitor(testbed.phone(), mt_config(30));
  monitor.start();
  testbed.run_until_finished(monitor);
  EXPECT_EQ(testbed.phone().station().doze_count(), dozes_before);
  EXPECT_EQ(testbed.phone().bus().sleep_count(), sleeps_before);
}

TEST(AcuteMon, BackgroundStopsWithMeasurement) {
  Testbed testbed;
  testbed.settle(800_ms);
  AcuteMon monitor(testbed.phone(), mt_config(3));
  monitor.start();
  testbed.run_until_finished(monitor);
  const auto sent_at_finish = monitor.background_packets_sent();
  testbed.settle(1_s);
  EXPECT_LE(monitor.background_packets_sent(), sent_at_finish + 1);
}

TEST(AcuteMon, DisabledBackgroundSendsNone) {
  Testbed testbed;
  testbed.settle(800_ms);
  AcuteMon::Options options;
  options.background_enabled = false;
  AcuteMon monitor(testbed.phone(), mt_config(5), options);
  monitor.start();
  testbed.run_until_finished(monitor);
  EXPECT_EQ(monitor.background_packets_sent(), 0u);
  EXPECT_TRUE(monitor.warmup_sent());
}

TEST(AcuteMon, HttpProbeMethodWorks) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 30_ms;
  Testbed testbed(scenario);
  testbed.settle(800_ms);
  AcuteMon::Options options;
  options.method = AcuteMon::ProbeMethod::http;
  AcuteMon monitor(testbed.phone(), mt_config(5), options);
  monitor.start();
  testbed.run_until_finished(monitor);
  for (const auto& probe : monitor.result().probes) {
    ASSERT_TRUE(probe.response.has_value());
    EXPECT_EQ(probe.response->type, net::PacketType::http_response);
  }
}

TEST(AcuteMon, OptionContracts) {
  Testbed testbed;
  AcuteMon::Options options;
  options.warmup_lead = Duration{};
  EXPECT_THROW(AcuteMon(testbed.phone(), mt_config(5), options),
               sim::ContractViolation);
  options.warmup_lead = 20_ms;
  options.background_interval = Duration{};
  EXPECT_THROW(AcuteMon(testbed.phone(), mt_config(5), options),
               sim::ContractViolation);
}

// ---- The headline property (§4.2.2): for every handset and every path
// length, AcuteMon's median total overhead stays within 3 ms (4.5 ms for the
// slow single-core Xperia J whose driver costs reach that level), and the
// overhead is independent of the emulated RTT.
//
// Each case pools the samples of kSeeds replicate seeds and bounds the
// pooled median. The Galaxy Grand's median sits about 0.04 ms under its
// bound, and one 60-probe run's median varies from seed to seed by more
// than that (about one seed in four fails), so a single seed would decide
// the case by luck. The pooled median varies far less, so it passes a
// model that meets the bound and fails one that misses it.
struct AccuracyCase {
  int phone_index;
  int rtt_ms;
};

class AcuteMonAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(AcuteMonAccuracy, MedianOverheadWithinPaperBound) {
  constexpr int kSeeds = 32;
  const auto param = GetParam();
  const auto profile = phone::PhoneProfile::all()[param.phone_index];
  testbed::ScenarioSpec spec;
  spec.phones.front().profile = profile;
  spec.phones.front().workload = {.tool = tools::ToolKind::acutemon,
                                  .probe_count = 60};
  spec.emulated_rtt = Duration::millis(param.rtt_ms);
  std::vector<double> overheads;
  std::vector<double> dns;
  for (int k = 0; k < kSeeds; ++k) {
    spec.seed = 42 + param.phone_index * 10 + param.rtt_ms + 1000 * k;
    const auto result = testbed::Experiment::run(spec);
    ASSERT_GE(result.samples.size(), 55u) << "seed " << spec.seed;
    for (const LayerSample& sample : result.samples) {
      overheads.push_back(sample.total_overhead());
      dns.push_back(sample.dn_ms);
    }
  }

  const stats::Summary overhead(overheads);
  const double bound = profile.name == "Sony Xperia J" ? 4.5 : 3.0;
  EXPECT_LT(overhead.median(), bound) << profile.name;
  EXPECT_GE(overhead.median(), 0.0) << profile.name;

  // dn itself stays glued to the emulated value (Table 5).
  const stats::Summary dn(dns);
  EXPECT_NEAR(dn.mean(), param.rtt_ms, 3.0) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(
    PhonesByRtt, AcuteMonAccuracy,
    ::testing::Values(AccuracyCase{0, 20}, AccuracyCase{0, 135},
                      AccuracyCase{1, 20}, AccuracyCase{1, 135},
                      AccuracyCase{2, 20}, AccuracyCase{2, 135},
                      AccuracyCase{3, 20}, AccuracyCase{3, 135},
                      AccuracyCase{4, 20}, AccuracyCase{4, 135}));

}  // namespace
}  // namespace acute::core
