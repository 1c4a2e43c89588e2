// End-to-end integration: the testbed reproduces the paper's shape claims.
// Each test pins one qualitative result from the evaluation (§3, §4).
#include <gtest/gtest.h>

#include "core/acutemon.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"
#include "testbed/experiment.hpp"

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using core::LayerSample;
using phone::PhoneProfile;
using sim::Duration;
using tools::ToolKind;

TEST(Testbed, FastPingMatchesEmulatedRttAtAllLayers) {
  // Table 2, 10 ms interval rows: du ~ dk ~ dn ~ emulated RTT (+ ~1-3 ms).
  Experiment::PingSpec spec;
  spec.interval = 10_ms;
  spec.emulated_rtt = 30_ms;
  const auto result = Experiment::ping(spec);
  ASSERT_GE(result.samples.size(), 95u);
  const stats::Summary du(result.values(&LayerSample::du_ms));
  const stats::Summary dn(result.values(&LayerSample::dn_ms));
  EXPECT_NEAR(dn.mean(), 31.3, 1.0);
  EXPECT_NEAR(du.mean(), 33.4, 1.5);
  EXPECT_LT(du.mean() - dn.mean(), 4.0);
}

TEST(Testbed, SlowPingInflatesOnNexus5InternallyOnly) {
  // Table 2: Nexus 5 at 1 s interval inflates du by ~12 ms at 30 ms
  // emulated, while dn stays at the emulated value.
  Experiment::PingSpec spec;
  spec.profile = PhoneProfile::nexus5();
  spec.interval = 1_s;
  spec.emulated_rtt = 30_ms;
  const auto result = Experiment::ping(spec);
  const stats::Summary du(result.values(&LayerSample::du_ms));
  const stats::Summary dn(result.values(&LayerSample::dn_ms));
  EXPECT_GT(du.mean(), 40.0);
  EXPECT_LT(du.mean(), 47.0);
  EXPECT_NEAR(dn.mean(), 31.3, 1.5);  // no PSM activity on the air
}

TEST(Testbed, SlowPingOnNexus5At60msPaysBothWakes) {
  // Table 2: at 60 ms the response also meets a sleeping bus: ~+21 ms.
  Experiment::PingSpec spec;
  spec.profile = PhoneProfile::nexus5();
  spec.interval = 1_s;
  spec.emulated_rtt = 60_ms;
  const auto result = Experiment::ping(spec);
  const stats::Summary du(result.values(&LayerSample::du_ms));
  const stats::Summary dn(result.values(&LayerSample::dn_ms));
  EXPECT_GT(du.mean() - dn.mean(), 15.0);
  EXPECT_LT(du.mean() - dn.mean(), 28.0);
  EXPECT_NEAR(dn.mean(), 61.3, 1.5);
}

TEST(Testbed, SlowPingOnNexus4At60msInflatesExternally) {
  // Table 2: Nexus 4 (Tip ~40 ms) at 60 ms emulated: dn itself inflates by
  // tens of milliseconds (PSM buffering at the AP).
  Experiment::PingSpec spec;
  spec.profile = PhoneProfile::nexus4();
  spec.interval = 1_s;
  spec.emulated_rtt = 60_ms;
  const auto result = Experiment::ping(spec);
  const stats::Summary dn(result.values(&LayerSample::dn_ms));
  EXPECT_GT(dn.mean(), 100.0);  // paper: 130.03 +/- 7.52
  EXPECT_LT(dn.mean(), 160.0);
  // Internal inflation stays small on the SMD bus (~5-7 ms).
  const stats::Summary du(result.values(&LayerSample::du_ms));
  EXPECT_LT(du.mean() - dn.mean(), 10.0);
}

TEST(Testbed, SlowPingOnNexus4At30msInflatesPartially) {
  // Table 2's subtlest cell: the 30 ms response races the ~40 ms doze
  // entry, so only a fraction of probes pay the beacon wait.
  Experiment::PingSpec spec;
  spec.profile = PhoneProfile::nexus4();
  spec.interval = 1_s;
  spec.emulated_rtt = 30_ms;
  const auto result = Experiment::ping(spec);
  const stats::Summary dn(result.values(&LayerSample::dn_ms));
  EXPECT_GT(dn.mean(), 33.0);   // some external inflation...
  EXPECT_LT(dn.mean(), 55.0);   // ...but far from the every-probe case
  int inflated = 0;
  for (const double v : result.values(&LayerSample::dn_ms)) {
    if (v > 45.0) ++inflated;
  }
  EXPECT_GT(inflated, 2);
  EXPECT_LT(inflated, 60);
}

TEST(Testbed, DriverLogsSeparateSleepFromBase) {
  // Table 3 shape: enabled/1 s wake ~10-14 ms; disabled stays at base.
  Experiment::DriverDelaySpec enabled;
  enabled.interval = 1_s;
  enabled.probes = 50;
  const auto with_sleep = Experiment::driver_delays(enabled);
  Experiment::DriverDelaySpec disabled = enabled;
  disabled.bus_sleep_enabled = false;
  const auto without_sleep = Experiment::driver_delays(disabled);

  const stats::Summary dvsend_on(with_sleep.dvsend_ms);
  const stats::Summary dvsend_off(without_sleep.dvsend_ms);
  EXPECT_GT(dvsend_on.mean(), 8.0);
  EXPECT_LT(dvsend_off.mean(), 1.2);
  EXPECT_LT(dvsend_off.max(), 2.0);

  const stats::Summary dvrecv_on(with_sleep.dvrecv_ms);
  const stats::Summary dvrecv_off(without_sleep.dvrecv_ms);
  EXPECT_GT(dvrecv_on.mean(), dvrecv_off.mean() + 6.0);
}

TEST(Testbed, AcuteMonOutperformsEveryBaselineTool) {
  // Fig. 8(a): AcuteMon's median sits >8 ms below every other tool.
  const ToolKind baselines[] = {ToolKind::icmp_ping, ToolKind::httping,
                                ToolKind::java_ping};
  Experiment::ToolSpec am_spec;
  am_spec.kind = ToolKind::acutemon;
  am_spec.probes = 60;
  const double am_median = stats::Summary(
      Experiment::tool(am_spec).run.reported_rtts_ms()).median();
  EXPECT_LT(am_median, 35.0);  // ~90% below 35 ms in the paper

  for (const ToolKind kind : baselines) {
    Experiment::ToolSpec spec;
    spec.kind = kind;
    spec.probes = 60;
    const double median = stats::Summary(
        Experiment::tool(spec).run.reported_rtts_ms()).median();
    EXPECT_GT(median, am_median + 8.0) << to_string(kind);
  }
}

TEST(Testbed, CrossTrafficSaturatesNearTenMbps) {
  TestbedConfig config;
  config.congested_phy = true;
  Testbed testbed(config);
  testbed.settle(500_ms);
  testbed.start_cross_traffic();
  testbed.settle(3_s);
  const double mbps = testbed.cross_traffic_throughput_mbps();
  EXPECT_GT(mbps, 8.0);  // §4.3: "maximum throughput is only around 10Mbps"
  EXPECT_LT(mbps, 15.0);
}

TEST(Testbed, CrossTrafficShiftsAllToolsRight) {
  // Fig. 8(b): congestion adds medium-access delay for every tool.
  Experiment::ToolSpec clear_spec;
  clear_spec.kind = ToolKind::acutemon;
  clear_spec.probes = 50;
  const double clear_median = stats::Summary(
      Experiment::tool(clear_spec).run.reported_rtts_ms()).median();

  Experiment::ToolSpec busy_spec = clear_spec;
  busy_spec.cross_traffic = true;
  const double busy_median = stats::Summary(
      Experiment::tool(busy_spec).run.reported_rtts_ms()).median();
  EXPECT_GT(busy_median, clear_median + 1.0);
}

TEST(Testbed, BackgroundTrafficDoesNotPerturbCongestedRuns) {
  // Fig. 9: with the bus sleep disabled, the with/without-background CDFs
  // nearly coincide (KS distance small).
  Experiment::AcuteMonSpec with_bg;
  with_bg.cross_traffic = true;
  with_bg.bus_sleep_enabled = false;
  with_bg.probes = 80;
  Experiment::AcuteMonSpec without_bg = with_bg;
  without_bg.background_enabled = false;
  without_bg.seed = 43;

  const auto run_with = Experiment::acutemon(with_bg);
  const auto run_without = Experiment::acutemon(without_bg);
  const stats::Cdf cdf_with(run_with.run.reported_rtts_ms());
  const stats::Cdf cdf_without(run_without.run.reported_rtts_ms());
  EXPECT_LT(stats::Cdf::ks_distance(cdf_with, cdf_without), 0.25);
  // Medians within ~1.5 ms of each other.
  EXPECT_NEAR(cdf_with.quantile(0.5), cdf_without.quantile(0.5), 1.5);
}

TEST(Testbed, SnifferDnAgreesWithStampDn) {
  // The sniffer-derived network RTT matches the channel ground truth.
  TestbedConfig config;
  config.emulated_rtt = 30_ms;
  Testbed testbed(config);
  testbed.settle(800_ms);
  core::AcuteMon monitor(testbed.phone(), [] {
    tools::MeasurementTool::Config c;
    c.probe_count = 20;
    c.timeout = 1_s;
    c.target = Testbed::kServerId;
    return c;
  }());
  monitor.start_measurement();
  testbed.run_until_finished(monitor);

  for (const auto& probe : monitor.result().probes) {
    ASSERT_TRUE(probe.response.has_value());
    const auto& response = *probe.response;
    const auto rx_air = testbed.sniffer(0).air_time_of(response.id);
    ASSERT_TRUE(rx_air.has_value());
    const auto truth = response.stamps.air;
    ASSERT_TRUE(truth.has_value());
    const Duration error = *rx_air - *truth;
    EXPECT_LE(error, Duration::micros(3));   // capture noise only
    EXPECT_GE(error, -Duration::micros(3));
  }
  // All three sniffers saw the same frame count (0.5 m apart, §2.2).
  EXPECT_EQ(testbed.sniffer(0).captures().size(),
            testbed.sniffer(1).captures().size());
  EXPECT_EQ(testbed.sniffer(1).captures().size(),
            testbed.sniffer(2).captures().size());
}

TEST(Testbed, InferredTimeoutsMatchProfiles) {
  // Table 4 for one Qualcomm and one Broadcom handset (the full five-phone
  // sweep runs in bench_table4).
  const auto grand = Experiment::infer_timeouts(PhoneProfile::galaxy_grand());
  EXPECT_NEAR(grand.psm_timeout.to_ms(), 45.0, 12.0);
  EXPECT_NEAR(grand.bus_sleep_timeout.to_ms(), 50.0, 15.0);
  EXPECT_EQ(grand.listen_associated, 10);
  EXPECT_EQ(grand.listen_actual, 0);

  const auto htc = Experiment::infer_timeouts(PhoneProfile::htc_one());
  EXPECT_NEAR(htc.psm_timeout.to_ms(), 400.0, 15.0);
  EXPECT_EQ(htc.listen_associated, 1);
  EXPECT_EQ(htc.listen_actual, 0);
}

TEST(Testbed, EmulatedRttSweepTracksNetem) {
  // The fabric adds ~1.3 ms to whatever netem emulates.
  for (const int rtt_ms : {0, 20, 85}) {
    Experiment::AcuteMonSpec spec;
    spec.emulated_rtt = Duration::millis(rtt_ms);
    spec.probes = 30;
    const auto result = Experiment::acutemon(spec);
    const stats::Summary dn(result.values(&LayerSample::dn_ms));
    EXPECT_NEAR(dn.mean(), rtt_ms + 1.3, 1.0) << rtt_ms;
  }
}

TEST(Testbed, ToolKindNames) {
  EXPECT_STREQ(to_string(ToolKind::acutemon), "AcuteMon");
  EXPECT_STREQ(to_string(ToolKind::icmp_ping), "ping");
  EXPECT_STREQ(to_string(ToolKind::httping), "httping");
  EXPECT_STREQ(to_string(ToolKind::java_ping), "Java ping");
}

}  // namespace
}  // namespace acute::testbed
