// Cross-cutting coverage: logging, ICMP time-exceeded generation, failure
// injection (loss during AcuteMon), and per-handset property sweeps of the
// fast-interval baseline (Fig. 3's 10 ms rows).
#include <gtest/gtest.h>

#include <sstream>

#include "core/acutemon.hpp"
#include "sim/logging.hpp"
#include "stats/summary.hpp"
#include "testbed/experiment.hpp"
#include "testbed/testbed.hpp"

namespace acute {
namespace {

using namespace acute::sim::literals;
using sim::Duration;

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(sim::Log::level()) {}
  ~LogLevelGuard() { sim::Log::set_level(saved_); }

 private:
  sim::LogLevel saved_;
};

TEST(Logging, LevelGatesEmission) {
  LogLevelGuard guard;
  sim::Log::set_level(sim::LogLevel::warn);
  EXPECT_FALSE(sim::Log::enabled(sim::LogLevel::debug));
  EXPECT_TRUE(sim::Log::enabled(sim::LogLevel::warn));
  sim::Log::set_level(sim::LogLevel::debug);
  EXPECT_TRUE(sim::Log::enabled(sim::LogLevel::debug));
  sim::Log::set_level(sim::LogLevel::off);
  EXPECT_FALSE(sim::Log::enabled(sim::LogLevel::warn));
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(sim::to_string(sim::LogLevel::debug), "DEBUG");
  EXPECT_STREQ(sim::to_string(sim::LogLevel::info), "INFO");
  EXPECT_STREQ(sim::to_string(sim::LogLevel::warn), "WARN");
}

TEST(Logging, LoggerFormatsComponent) {
  LogLevelGuard guard;
  sim::Log::set_level(sim::LogLevel::off);  // exercise the early-out path
  const sim::Logger logger("sdio-bus");
  logger.debug(sim::TimePoint::epoch(), "state=", 1, " wake=", 2.5, "ms");
  EXPECT_EQ(logger.component(), "sdio-bus");
}

TEST(AccessPointTtl, TimeExceededRepliesWhenEnabled) {
  testbed::ScenarioSpec scenario;
  scenario.send_ttl_exceeded = true;
  testbed::Testbed testbed(scenario);
  testbed.phone().set_system_traffic_enabled(false);
  testbed.settle(500_ms);

  // An app listening on the warm-up flow sees the gateway's ICMP error.
  std::vector<net::Packet> received;
  const std::uint32_t flow = testbed.phone().allocate_flow_id();
  testbed.phone().register_flow(
      flow, [&](const net::Packet& pkt) { received.push_back(pkt); });
  net::Packet warmup =
      net::Packet::make(net::PacketType::udp_warmup, net::Protocol::udp, 0,
                        testbed::Testbed::kServerId,
                        net::packet_size::udp_small);
  warmup.ttl = 1;
  warmup.flow_id = flow;
  testbed.phone().send(std::move(warmup), phone::ExecMode::native_c);
  testbed.settle(50_ms);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].type, net::PacketType::icmp_time_exceeded);
  EXPECT_EQ(received[0].src, testbed::Testbed::kApId);
}

TEST(AccessPointTtl, SilentDropByDefault) {
  testbed::Testbed testbed;
  testbed.phone().set_system_traffic_enabled(false);
  testbed.settle(500_ms);
  std::vector<net::Packet> received;
  const std::uint32_t flow = testbed.phone().allocate_flow_id();
  testbed.phone().register_flow(
      flow, [&](const net::Packet& pkt) { received.push_back(pkt); });
  net::Packet warmup =
      net::Packet::make(net::PacketType::udp_warmup, net::Protocol::udp, 0,
                        testbed::Testbed::kServerId,
                        net::packet_size::udp_small);
  warmup.ttl = 1;
  warmup.flow_id = flow;
  testbed.phone().send(std::move(warmup), phone::ExecMode::native_c);
  testbed.settle(50_ms);
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(testbed.ap().ttl_drops(), 1u);
}

TEST(FailureInjection, AcuteMonSurvivesPacketLoss) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 30_ms;
  testbed::Testbed testbed(scenario);
  testbed.server().netem().set_loss(0.2);
  testbed.settle(800_ms);

  tools::MeasurementTool::Config mt;
  mt.probe_count = 50;
  mt.timeout = 300_ms;
  mt.target = testbed::Testbed::kServerId;
  core::AcuteMon monitor(testbed.phone(), mt);
  monitor.start();
  testbed.run_until_finished(monitor);

  // Losses are recorded as timeouts, the rest measure normally.
  EXPECT_EQ(monitor.result().probes.size(), 50u);
  EXPECT_GT(monitor.result().loss_count(), 2u);
  EXPECT_GT(monitor.result().success_count(), 25u);
  const auto rtts = monitor.result().reported_rtts_ms();
  EXPECT_LT(stats::Summary(rtts).median(), 36.0);  // survivors unaffected
}

TEST(FailureInjection, AcuteMonAllProbesLost) {
  testbed::Testbed testbed;
  testbed.server().netem().set_loss(0.99);
  testbed.settle(800_ms);
  tools::MeasurementTool::Config mt;
  mt.probe_count = 8;
  mt.timeout = 100_ms;
  mt.target = testbed::Testbed::kServerId;
  core::AcuteMon monitor(testbed.phone(), mt);
  bool done = false;
  monitor.start([&](const tools::ToolRun&) { done = true; });
  testbed.run_until_finished(monitor);
  EXPECT_TRUE(done);  // completes via timeouts, never hangs
  EXPECT_GE(monitor.result().loss_count(), 6u);
}

TEST(FailureInjection, LateResponsesAfterTimeoutAreIgnored) {
  // RTT (200 ms) far above the probe timeout (50 ms): every response
  // arrives late and must be discarded without crashing or double-counting.
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 200_ms;
  testbed::Testbed testbed(scenario);
  testbed.settle(800_ms);
  tools::MeasurementTool::Config mt;
  mt.probe_count = 10;
  mt.timeout = 50_ms;
  mt.target = testbed::Testbed::kServerId;
  core::AcuteMon monitor(testbed.phone(), mt);
  monitor.start();
  testbed.run_until_finished(monitor);
  testbed.settle(1_s);  // let the stragglers arrive
  EXPECT_EQ(monitor.result().probes.size(), 10u);
  EXPECT_EQ(monitor.result().loss_count(), 10u);
}

// Property: Fig. 3's 10 ms-interval claim holds on *every* handset — the
// kernel-phy overhead stays below ~4-5 ms when the phone never sleeps.
class FastPingBaseline : public ::testing::TestWithParam<int> {};

TEST_P(FastPingBaseline, KernelPhyOverheadSmallAtFastInterval) {
  const auto profile = phone::PhoneProfile::all()[GetParam()];
  testbed::ScenarioSpec spec;
  spec.phones.front().profile = profile;
  spec.phones.front().workload = {.probe_count = 60, .interval = 10_ms};
  spec.emulated_rtt = 30_ms;
  spec.seed = 100 + GetParam();
  const auto result = testbed::Experiment::run(spec);
  const stats::Summary dk_n(result.values(&core::LayerSample::dk_n));
  EXPECT_LT(dk_n.median(), 5.0) << profile.name;
  EXPECT_GE(dk_n.median(), 0.3) << profile.name;
  // And the user-kernel overhead stays within +/-1.5 ms even on slow CPUs.
  const stats::Summary du_k(result.values(&core::LayerSample::du_k));
  EXPECT_LT(du_k.median(), 1.5) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(AllPhones, FastPingBaseline, ::testing::Range(0, 5));

// Property: the slow-interval internal inflation scales with the chipset's
// wake cost — Broadcom handsets inflate more than Qualcomm ones.
TEST(VendorContrast, BroadcomInflatesMoreThanQualcomm) {
  const auto measure = [](const phone::PhoneProfile& profile) {
    testbed::ScenarioSpec spec;
    spec.phones.front().profile = profile;
    spec.phones.front().workload = {.probe_count = 60, .interval = 1_s};
    spec.emulated_rtt = 30_ms;
    const auto result = testbed::Experiment::run(spec);
    const stats::Summary du(result.values(&core::LayerSample::du_ms));
    const stats::Summary dn(result.values(&core::LayerSample::dn_ms));
    return du.median() - dn.median();
  };
  const double broadcom = measure(phone::PhoneProfile::nexus5());
  const double qualcomm = measure(phone::PhoneProfile::htc_one());
  EXPECT_GT(broadcom, qualcomm + 4.0);
}

}  // namespace
}  // namespace acute
