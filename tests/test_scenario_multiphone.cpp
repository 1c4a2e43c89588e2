// Multi-phone scenarios: heterogeneous handsets contending on one channel.
// Each phone's LayerSample decomposition must stay internally consistent
// (du >= dk >= dv >= dn) and channel contention must inflate the network
// RTT (dn) for every phone.
#include <gtest/gtest.h>

#include <vector>

#include "sim/contracts.hpp"
#include "stats/summary.hpp"
#include "testbed/testbed.hpp"
#include "tools/ping.hpp"

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using core::LayerSample;
using phone::PhoneProfile;
using sim::Duration;

/// ping's sub-100 ms output resolution is 0.1 ms, so the *reported* du can
/// sit up to ~0.1 ms below the stamp-derived value; everything below dk is
/// stamp-derived and strictly ordered.
constexpr double kReportSlackMs = 0.15;

ScenarioSpec two_phone_spec() {
  ScenarioSpec spec;
  spec.phones = {PhoneSpec{PhoneProfile::nexus5(), ""},
                 PhoneSpec{PhoneProfile::nexus4(), ""}};
  spec.seed = 42;
  spec.emulated_rtt = 20_ms;
  return spec;
}

/// Runs one concurrent ping per phone and returns each phone's samples.
std::vector<std::vector<LayerSample>> ping_all_phones(Testbed& testbed,
                                                      int probes) {
  testbed.settle(800_ms);
  std::vector<std::unique_ptr<tools::IcmpPing>> pings;
  std::vector<tools::MeasurementTool*> running;
  for (std::size_t i = 0; i < testbed.phone_count(); ++i) {
    tools::MeasurementTool::Config config;
    config.probe_count = probes;
    config.interval = 200_ms;
    config.timeout = 1_s;
    config.target = Testbed::kServerId;
    pings.push_back(
        std::make_unique<tools::IcmpPing>(testbed.phone(i), config));
    pings.back()->start();
    running.push_back(pings.back().get());
  }
  testbed.run_until_all_finished(running);
  std::vector<std::vector<LayerSample>> samples;
  for (const auto& ping : pings) {
    samples.push_back(testbed.layer_samples(ping->result()));
  }
  return samples;
}

TEST(MultiPhoneScenario, BuildsHeterogeneousPhonesWithDistinctIds) {
  Testbed testbed(two_phone_spec());
  ASSERT_EQ(testbed.phone_count(), 2u);
  EXPECT_EQ(testbed.phone(0).id(), Testbed::kPhoneId);
  EXPECT_EQ(testbed.phone(1).id(), Testbed::kExtraPhoneBaseId);
  EXPECT_EQ(testbed.phone(0).profile().name, PhoneProfile::nexus5().name);
  EXPECT_EQ(testbed.phone(1).profile().name, PhoneProfile::nexus4().name);
  // Both handsets share the channel and are associated at the AP.
  EXPECT_EQ(testbed.ap().associated_listen_interval(Testbed::kPhoneId),
            PhoneProfile::nexus5().associated_listen_interval);
  EXPECT_EQ(testbed.ap().associated_listen_interval(
                Testbed::kExtraPhoneBaseId),
            PhoneProfile::nexus4().associated_listen_interval);
}

TEST(MultiPhoneScenario, EachPhonesDecompositionStaysConsistent) {
  Testbed testbed(two_phone_spec());
  const auto per_phone = ping_all_phones(testbed, 40);
  ASSERT_EQ(per_phone.size(), 2u);
  for (std::size_t i = 0; i < per_phone.size(); ++i) {
    ASSERT_GE(per_phone[i].size(), 30u) << "phone " << i;
    for (const LayerSample& s : per_phone[i]) {
      EXPECT_GE(s.du_ms, s.dk_ms - kReportSlackMs) << "phone " << i;
      EXPECT_GE(s.dk_ms, s.dv_ms) << "phone " << i;
      EXPECT_GE(s.dv_ms, s.dn_ms) << "phone " << i;
      EXPECT_GT(s.dn_ms, 0.0) << "phone " << i;
    }
  }
}

TEST(MultiPhoneScenario, ContentionRaisesDnForBothPhones) {
  // Quiet channel baseline.
  Testbed quiet(two_phone_spec());
  const auto quiet_samples = ping_all_phones(quiet, 40);

  // Same scenario under §4.3-style congestion (mixed PHY + iPerf load).
  ScenarioSpec busy_spec = two_phone_spec();
  busy_spec.congested_phy = true;
  Testbed busy(busy_spec);
  busy.start_cross_traffic();
  busy.settle(2_s);
  const auto busy_samples = ping_all_phones(busy, 40);

  for (std::size_t i = 0; i < 2; ++i) {
    const double quiet_dn = stats::Summary(
        core::extract(quiet_samples[i], &LayerSample::dn_ms)).median();
    const double busy_dn = stats::Summary(
        core::extract(busy_samples[i], &LayerSample::dn_ms)).median();
    EXPECT_GT(busy_dn, quiet_dn + 0.5) << "phone " << i;
  }
}

TEST(MultiPhoneScenario, ScenariosAreDeterministic) {
  auto run = [] {
    Testbed testbed(two_phone_spec());
    const auto per_phone = ping_all_phones(testbed, 15);
    std::vector<double> flat;
    for (const auto& samples : per_phone) {
      for (const LayerSample& s : samples) {
        flat.push_back(s.du_ms);
        flat.push_back(s.dn_ms);
      }
    }
    return flat;
  };
  EXPECT_EQ(run(), run());
}

TEST(MultiPhoneScenario, RejectsDuplicateOrReservedPhoneLabels) {
  ScenarioSpec duplicate = two_phone_spec();
  duplicate.phones[0].label = "dut";
  duplicate.phones[1].label = "dut";
  EXPECT_THROW(Testbed{duplicate}, sim::ContractViolation);

  ScenarioSpec reserved = two_phone_spec();
  reserved.phones[1].label = "loadgen";  // infrastructure rng tag
  EXPECT_THROW(Testbed{reserved}, sim::ContractViolation);

  ScenarioSpec empty = two_phone_spec();
  empty.phones.clear();
  EXPECT_THROW(Testbed{empty}, sim::ContractViolation);
}

TEST(MultiPhoneScenario, DefaultSpecBuildsFig2Topology) {
  // ScenarioSpec{} is the paper's Fig. 2 testbed: one Nexus 5 at the
  // historical phone id, observed by sniffers A, B and C.
  Testbed testbed{ScenarioSpec{}};
  ASSERT_EQ(testbed.phone_count(), 1u);
  EXPECT_EQ(testbed.phone().id(), Testbed::kPhoneId);
  EXPECT_EQ(testbed.phone().profile().name, PhoneProfile::nexus5().name);
  ASSERT_EQ(testbed.sniffer_count(), 3u);
  EXPECT_EQ(testbed.sniffer(0).name(), "sniffer-A");
  EXPECT_EQ(testbed.sniffer(1).name(), "sniffer-B");
  EXPECT_EQ(testbed.sniffer(2).name(), "sniffer-C");
}

}  // namespace
}  // namespace acute::testbed
