// End-to-end integration: the testbed reproduces the paper's shape claims.
// Each test pins one qualitative result from the evaluation (§3, §4); the
// last one pins Experiment::run's output bits to tests/golden/.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/acutemon.hpp"
#include "sim/contracts.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"
#include "testbed/experiment.hpp"
#include "tools/ping.hpp"

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using core::LayerSample;
using phone::PhoneProfile;
using sim::Duration;
using tools::ToolKind;

/// One phone on `profile` running `workload` over an `emulated_rtt` path.
ScenarioSpec one_phone(Duration emulated_rtt, WorkloadSpec workload,
                       const PhoneProfile& profile = PhoneProfile::nexus5()) {
  ScenarioSpec spec;
  spec.phones.front().profile = profile;
  spec.phones.front().workload = workload;
  spec.emulated_rtt = emulated_rtt;
  return spec;
}

TEST(Testbed, FastPingMatchesEmulatedRttAtAllLayers) {
  // Table 2, 10 ms interval rows: du ~ dk ~ dn ~ emulated RTT (+ ~1-3 ms).
  const auto result = Experiment::run(one_phone(30_ms, {.interval = 10_ms}));
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
  const auto result = Experiment::run(one_phone(30_ms, {.interval = 1_s}));
  const stats::Summary du(result.values(&LayerSample::du_ms));
  const stats::Summary dn(result.values(&LayerSample::dn_ms));
  EXPECT_GT(du.mean(), 40.0);
  EXPECT_LT(du.mean(), 47.0);
  EXPECT_NEAR(dn.mean(), 31.3, 1.5);  // no PSM activity on the air
}

TEST(Testbed, SlowPingOnNexus5At60msPaysBothWakes) {
  // Table 2: at 60 ms the response also meets a sleeping bus: ~+21 ms.
  const auto result = Experiment::run(one_phone(60_ms, {.interval = 1_s}));
  const stats::Summary du(result.values(&LayerSample::du_ms));
  const stats::Summary dn(result.values(&LayerSample::dn_ms));
  EXPECT_GT(du.mean() - dn.mean(), 15.0);
  EXPECT_LT(du.mean() - dn.mean(), 28.0);
  EXPECT_NEAR(dn.mean(), 61.3, 1.5);
}

TEST(Testbed, SlowPingOnNexus4At60msInflatesExternally) {
  // Table 2: Nexus 4 (Tip ~40 ms) at 60 ms emulated: dn itself inflates by
  // tens of milliseconds (PSM buffering at the AP).
  const auto result = Experiment::run(
      one_phone(60_ms, {.interval = 1_s}, PhoneProfile::nexus4()));
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
  const auto result = Experiment::run(
      one_phone(30_ms, {.interval = 1_s}, PhoneProfile::nexus4()));
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
  const ScenarioSpec spec =
      one_phone(60_ms, {.probe_count = 50, .interval = 1_s});
  const auto with_sleep = Experiment::run(spec);
  const auto without_sleep =
      Experiment::run(spec, {.bus_sleep_enabled = false});

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
  const auto median_rtt = [](ToolKind kind) {
    return stats::Summary(
               Experiment::run(one_phone(30_ms, {.tool = kind,
                                                 .probe_count = 60}))
                   .run.reported_rtts_ms())
        .median();
  };
  const double am_median = median_rtt(ToolKind::acutemon);
  EXPECT_LT(am_median, 35.0);  // ~90% below 35 ms in the paper

  for (const ToolKind kind : baselines) {
    EXPECT_GT(median_rtt(kind), am_median + 8.0) << to_string(kind);
  }
}

TEST(Testbed, CrossTrafficSaturatesNearTenMbps) {
  ScenarioSpec spec;
  spec.congested_phy = true;
  Testbed testbed(spec);
  testbed.settle(500_ms);
  testbed.start_cross_traffic();
  testbed.settle(3_s);
  const double mbps = testbed.cross_traffic_throughput_mbps();
  EXPECT_GT(mbps, 8.0);  // §4.3: "maximum throughput is only around 10Mbps"
  EXPECT_LT(mbps, 15.0);
}

TEST(Testbed, SwitchFloodsOnlyFirstContactsNotCrossTraffic) {
  // The load sink never sends, so only its pinned switch port keeps the
  // iPerf load off the echo server's link. What may still flood is a
  // host's first contact before the switch learns it: a count that does
  // not grow with how long the load runs.
  const auto floods_after = [](Duration load) {
    ScenarioSpec spec;
    spec.congested_phy = true;
    Testbed testbed(spec);
    testbed.settle(500_ms);
    testbed.start_cross_traffic();
    testbed.settle(load);
    EXPECT_GT(testbed.cross_traffic_throughput_mbps(), 8.0);
    return testbed.wired_switch().flooded_count();
  };
  EXPECT_EQ(floods_after(1_s), floods_after(3_s));
}

TEST(Testbed, CrossTrafficShiftsAllToolsRight) {
  // Fig. 8(b): congestion adds medium-access delay for every tool.
  const ScenarioSpec clear_spec =
      one_phone(30_ms, {.tool = ToolKind::acutemon, .probe_count = 50});
  const double clear_median = stats::Summary(
      Experiment::run(clear_spec).run.reported_rtts_ms()).median();

  ScenarioSpec busy_spec = clear_spec;
  busy_spec.congested_phy = true;
  const double busy_median = stats::Summary(
      Experiment::run(busy_spec).run.reported_rtts_ms()).median();
  EXPECT_GT(busy_median, clear_median + 1.0);
}

TEST(Testbed, BackgroundTrafficDoesNotPerturbCongestedRuns) {
  // Fig. 9: with the bus sleep disabled, the with/without-background CDFs
  // nearly coincide (KS distance small).
  ScenarioSpec with_bg =
      one_phone(30_ms, {.tool = ToolKind::acutemon, .probe_count = 80});
  with_bg.congested_phy = true;
  ScenarioSpec without_bg = with_bg;
  without_bg.seed = 43;

  const auto run_with =
      Experiment::run(with_bg, {.bus_sleep_enabled = false});
  const auto run_without = Experiment::run(
      without_bg, {.bus_sleep_enabled = false, .acutemon_background = false});
  const stats::Cdf cdf_with(run_with.run.reported_rtts_ms());
  const stats::Cdf cdf_without(run_without.run.reported_rtts_ms());
  EXPECT_LT(stats::Cdf::ks_distance(cdf_with, cdf_without), 0.25);
  // Medians within ~1.5 ms of each other.
  EXPECT_NEAR(cdf_with.quantile(0.5), cdf_without.quantile(0.5), 1.5);
}

/// Records each clean capture a sniffer forwards (id and capture time).
struct CaptureLog : passive::CaptureObserver {
  std::vector<std::pair<std::uint64_t, sim::TimePoint>> clean;
  std::size_t frames = 0;
  void on_capture(const net::Packet& packet, net::NodeId, net::NodeId,
                  sim::TimePoint time, bool collided) override {
    ++frames;
    if (!collided) clean.emplace_back(packet.id, time);
  }
};

TEST(Testbed, SnifferDnAgreesWithStampDn) {
  // The sniffer-derived network RTT matches the channel ground truth.
  ScenarioSpec spec;
  spec.emulated_rtt = 30_ms;
  Testbed testbed(spec);
  std::vector<CaptureLog> logs(testbed.sniffer_count());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    testbed.sniffer(i).attach_capture_observer(&logs[i]);
  }
  testbed.settle(800_ms);
  core::AcuteMon monitor(testbed.phone(), [] {
    tools::MeasurementTool::Config c;
    c.probe_count = 20;
    c.timeout = 1_s;
    c.target = Testbed::kServerId;
    return c;
  }());
  monitor.start();
  testbed.run_until_finished(monitor);

  ASSERT_EQ(logs.size(), 3u);
  for (const auto& probe : monitor.result().probes) {
    ASSERT_TRUE(probe.response.has_value());
    const auto& response = *probe.response;
    const auto rx_air = std::find_if(
        logs[0].clean.begin(), logs[0].clean.end(),
        [&response](const auto& capture) {
          return capture.first == response.id;
        });
    ASSERT_NE(rx_air, logs[0].clean.end());
    const auto truth = response.stamps.air;
    ASSERT_TRUE(truth.has_value());
    const Duration error = rx_air->second - *truth;
    EXPECT_LE(error, Duration::micros(3));   // capture noise only
    EXPECT_GE(error, -Duration::micros(3));
  }
  // All three sniffers saw the same frame count (0.5 m apart, §2.2).
  EXPECT_EQ(logs[0].frames, logs[1].frames);
  EXPECT_EQ(logs[1].frames, logs[2].frames);
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
    const auto result = Experiment::run(
        one_phone(Duration::millis(rtt_ms),
                  {.tool = ToolKind::acutemon, .probe_count = 30}));
    const stats::Summary dn(result.values(&LayerSample::dn_ms));
    EXPECT_NEAR(dn.mean(), rtt_ms + 1.3, 1.0) << rtt_ms;
  }
}

TEST(Testbed, ExperimentRunLeavesMultiPhoneAndPassiveToCampaign) {
  ScenarioSpec two_phones;
  two_phones.phones.resize(2);
  EXPECT_THROW((void)Experiment::run(two_phones), sim::ContractViolation);
  ScenarioSpec passive;
  passive.phones.front().workload.passive = passive::PassiveVantage::sniffer;
  EXPECT_THROW((void)Experiment::run(passive), sim::ContractViolation);
}

TEST(Testbed, ToolKindNames) {
  EXPECT_STREQ(to_string(ToolKind::acutemon), "AcuteMon");
  EXPECT_STREQ(to_string(ToolKind::icmp_ping), "ping");
  EXPECT_STREQ(to_string(ToolKind::httping), "httping");
  EXPECT_STREQ(to_string(ToolKind::java_ping), "Java ping");
}

/// Three phones: two WiFi handsets (Nexus 5, Nexus 4) and a cellular one,
/// on a congested PHY so ping_once() runs cross traffic.
ScenarioSpec three_phone_shape() {
  ScenarioSpec spec;
  spec.phones.resize(3);
  spec.phones[1].profile = PhoneProfile::nexus4();
  spec.phones[2].radio = phone::RadioKind::cellular;
  spec.congested_phy = true;
  spec.emulated_rtt = 20_ms;
  spec.seed = 11;
  return spec;
}

/// What one run must reproduce bit for bit: the event and frame counts and
/// every probe's RTT at every layer, as IEEE-754 bit patterns.
struct RunBits {
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::vector<std::uint64_t> rtts;
};

/// Runs one IcmpPing from phone 0, with the cross traffic on when the
/// scenario's PHY is congested.
RunBits ping_once(Testbed& testbed) {
  if (testbed.spec().congested_phy) testbed.start_cross_traffic();
  testbed.settle(300_ms);
  tools::IcmpPing ping(testbed.phone(), {.probe_count = 8,
                                         .interval = 250_ms,
                                         .timeout = 1_s,
                                         .target = Testbed::kServerId});
  ping.start();
  testbed.run_until_finished(ping);
  RunBits bits{testbed.simulator().events_fired(),
               testbed.channel().frames_transmitted(),
               {}};
  for (const LayerSample& s : testbed.layer_samples(ping.result())) {
    for (const double ms : {s.du_ms, s.dk_ms, s.dv_ms, s.dn_ms}) {
      bits.rtts.push_back(std::bit_cast<std::uint64_t>(ms));
    }
  }
  return bits;
}

/// Counters of every WiFi phone that a build must start from zero. Read
/// straight after a build, they pin the resets of state that a settle
/// would mask (a stale bus idle count only brings the first bus sleep
/// forward) or that no event reads (the station's doze count).
std::vector<std::uint64_t> phone_counters(Testbed& testbed) {
  std::vector<std::uint64_t> counters;
  for (std::size_t i = 0; i < testbed.phone_count(); ++i) {
    phone::Smartphone& phone = testbed.phone(i);
    if (phone.radio_kind() != phone::RadioKind::wifi) continue;
    counters.insert(counters.end(),
                    {phone.station().doze_count(), phone.station().wake_count(),
                     static_cast<std::uint64_t>(phone.bus().idle_ticks()),
                     phone.bus().sleep_count()});
  }
  return counters;
}

/// Leaves phone 0 with counters a rebuild must clear: at least one doze
/// and a bus idle count in progress.
void dirty_phone_counters(Testbed& testbed) {
  testbed.phone().bus().activity();
  testbed.settle(25_ms);
  ASSERT_GT(testbed.phone().station().doze_count(), 0u);
  ASSERT_GT(testbed.phone().bus().idle_ticks(), 0);
}

TEST(Testbed, RebuildFromThreePhonesMatchesFreshDefault) {
  Testbed testbed(three_phone_shape());
  (void)ping_once(testbed);
  dirty_phone_counters(testbed);
  testbed.rebuild(ScenarioSpec{});
  Testbed fresh;
  EXPECT_EQ(phone_counters(testbed), phone_counters(fresh));
  const RunBits rebuilt = ping_once(testbed);
  const RunBits expected = ping_once(fresh);
  EXPECT_EQ(rebuilt.events, expected.events);
  EXPECT_EQ(rebuilt.frames, expected.frames);
  EXPECT_EQ(rebuilt.rtts, expected.rtts);
  EXPECT_FALSE(expected.rtts.empty());
}

TEST(Testbed, RebuildFromOnePhoneMatchesFreshThreePhones) {
  Testbed testbed;
  (void)ping_once(testbed);
  dirty_phone_counters(testbed);
  testbed.rebuild(three_phone_shape());
  Testbed fresh(three_phone_shape());
  EXPECT_EQ(phone_counters(testbed), phone_counters(fresh));
  const RunBits rebuilt = ping_once(testbed);
  const RunBits expected = ping_once(fresh);
  EXPECT_EQ(rebuilt.events, expected.events);
  EXPECT_EQ(rebuilt.frames, expected.frames);
  EXPECT_EQ(rebuilt.rtts, expected.rtts);
  EXPECT_FALSE(expected.rtts.empty());
}

// Committed output bytes: tests/golden/experiments.txt pins Experiment::run
// to a file, not only to the shape bands above.
//
// How experiments.txt was generated: a program wrote render_golden_cases()
// to the file. The cases it lists are ICMP ping for Nexus 5 and Nexus 4 x
// 30/60 ms x 10 ms/1 s intervals, one seed each; the driver logs with the
// bus sleep on and off; all four tools with and without cross traffic;
// AcuteMon with its background thread on and off on the rooted driver; and
// the Table 4 inference for the Galaxy Grand. Each case is one `case` line,
// then one line per series, every double as `%a`. The file was last
// regenerated when sim::Rng's engine became xoshiro256** (every draw
// moved); built against the library before that change, the same program
// reproduced the previous file byte for byte. Regenerate the file only with
// a deliberate change to output bits, by the same step.
const std::string kGoldenExperimentsPath =
    std::string(ACUTE_GOLDEN_DIR) + "/experiments.txt";

std::string golden_row(const char* name, const std::vector<double>& values) {
  std::string line = name;
  char buf[64];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %a", v);
    line += buf;
  }
  return line + "\n";
}

std::string golden_layers(const MultiLayerResult& result) {
  return golden_row("reported", result.run.reported_rtts_ms()) +
         golden_row("du", result.values(&LayerSample::du_ms)) +
         golden_row("dk", result.values(&LayerSample::dk_ms)) +
         golden_row("dv", result.values(&LayerSample::dv_ms)) +
         golden_row("dn", result.values(&LayerSample::dn_ms));
}

std::string render_golden_cases() {
  constexpr int kProbes = 10;
  std::string out;
  char buf[256];
  std::uint64_t seed = 100;
  for (const auto& profile : {PhoneProfile::nexus5(), PhoneProfile::nexus4()}) {
    for (const int rtt_ms : {30, 60}) {
      for (const int interval_ms : {10, 1000}) {
        ScenarioSpec spec = one_phone(
            Duration::millis(rtt_ms),
            {.probe_count = kProbes, .interval = Duration::millis(interval_ms)},
            profile);
        spec.seed = seed++;
        std::snprintf(buf, sizeof buf,
                      "case ping %s rtt_ms=%d interval_ms=%d seed=%llu\n",
                      profile.name.c_str(), rtt_ms, interval_ms,
                      static_cast<unsigned long long>(spec.seed));
        out += buf;
        out += golden_layers(Experiment::run(spec));
      }
    }
  }
  for (const bool sleep : {true, false}) {
    std::snprintf(buf, sizeof buf, "case driver bus_sleep=%d\n", sleep);
    out += buf;
    const auto result =
        Experiment::run(one_phone(60_ms, {.probe_count = kProbes}),
                        {.bus_sleep_enabled = sleep});
    out += golden_row("dvsend", result.dvsend_ms) +
           golden_row("dvrecv", result.dvrecv_ms);
  }
  for (const ToolKind kind : {ToolKind::acutemon, ToolKind::icmp_ping,
                              ToolKind::httping, ToolKind::java_ping}) {
    for (const bool cross : {false, true}) {
      ScenarioSpec spec =
          one_phone(30_ms, {.tool = kind, .probe_count = kProbes});
      spec.congested_phy = cross;
      std::snprintf(buf, sizeof buf, "case tool %s cross_traffic=%d\n",
                    tools::grid_name(kind), cross);
      out += buf;
      const auto result = Experiment::run(spec);
      out += golden_layers(result);
      std::snprintf(buf, sizeof buf, "cross_mbps %a\n",
                    result.cross_throughput_mbps);
      out += buf;
    }
  }
  for (const bool background : {true, false}) {
    std::snprintf(buf, sizeof buf,
                  "case acutemon background=%d bus_sleep=0\n", background);
    out += buf;
    out += golden_layers(Experiment::run(
        one_phone(30_ms, {.tool = ToolKind::acutemon, .probe_count = kProbes}),
        {.bus_sleep_enabled = false, .acutemon_background = background}));
  }
  const PhoneProfile grand = PhoneProfile::galaxy_grand();
  const auto inference = Experiment::infer_timeouts(grand);
  std::snprintf(buf, sizeof buf,
                "case infer_timeouts %s\ntip_ms %a\ntis_ms %a\n"
                "listen_associated %d\nlisten_actual %d\n",
                grand.name.c_str(), inference.psm_timeout.to_ms(),
                inference.bus_sleep_timeout.to_ms(),
                inference.listen_associated, inference.listen_actual);
  out += buf;
  return out;
}

TEST(Testbed, ExperimentRunReproducesGoldenFile) {
  std::ifstream in(kGoldenExperimentsPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << kGoldenExperimentsPath;
  std::ostringstream golden;
  golden << in.rdbuf();
  const std::string rendered = render_golden_cases();
  EXPECT_EQ(rendered.size(), golden.str().size());

  std::istringstream want(golden.str());
  std::istringstream got(rendered);
  std::string want_line;
  std::string got_line;
  int line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line)) << "missing line " << line;
    ASSERT_EQ(got_line, want_line) << "first difference on line " << line;
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "extra line " << line + 1;
}

}  // namespace
}  // namespace acute::testbed
