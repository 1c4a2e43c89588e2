// ping2 (Sui et al. [34]) and the phone-side kernel ICMP responder it
// depends on; validates the paper's §1 critique of the approach.
#include <gtest/gtest.h>

#include "stats/summary.hpp"
#include "testbed/testbed.hpp"
#include "tools/ping2.hpp"

namespace acute::tools {
namespace {

using namespace acute::sim::literals;
using sim::Duration;
using testbed::Testbed;

Ping2Prober::Result run_ping2(Testbed& testbed, int pairs) {
  Ping2Prober::Config config;
  config.target = Testbed::kPhoneId;
  config.pairs = pairs;
  config.timeout = 1_s;
  Ping2Prober prober(testbed.simulator(), testbed.server(), config);
  prober.start();
  auto& sim = testbed.simulator();
  const auto deadline = sim.now() + Duration::seconds(600);
  while (!prober.finished() && sim.now() < deadline) {
    sim.run_for(Duration::millis(50));
  }
  return prober.result();
}

TEST(KernelIcmpResponder, PhoneAnswersServerPings) {
  Testbed testbed;
  testbed.settle(500_ms);
  net::Packet ping = net::Packet::make(net::PacketType::icmp_echo_request,
                                       net::Protocol::icmp,
                                       Testbed::kServerId, Testbed::kPhoneId,
                                       net::packet_size::icmp_echo);
  ping.probe_id = net::Packet::allocate_id();
  int replies = 0;
  testbed.server().set_packet_observer([&](const net::Packet& pkt) {
    if (pkt.type == net::PacketType::icmp_echo_reply) ++replies;
  });
  testbed.server().originate(std::move(ping));
  testbed.settle(100_ms);
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(testbed.phone().kernel().icmp_echoes_served(), 1u);
}

TEST(Ping2, CompletesAllPairs) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 20_ms;
  Testbed testbed(scenario);
  testbed.settle(800_ms);
  const auto result = run_ping2(testbed, 20);
  EXPECT_EQ(result.second_rtts_ms.size(), 20u);
  EXPECT_EQ(result.first_rtts_ms.size(), 20u);
  EXPECT_EQ(result.lost_pairs, 0u);
}

TEST(Ping2, FirstPingPaysWakeSecondDoesNotOnShortPaths) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 20_ms;  // well below Tis = 50 ms
  Testbed testbed(scenario);
  testbed.settle(800_ms);
  const auto result = run_ping2(testbed, 40);
  const double first = stats::Summary(result.first_rtts_ms).median();
  const double second = stats::Summary(result.second_rtts_ms).median();
  // First pings hit the sleeping bus (the phone idles 1 s between pairs).
  EXPECT_GT(first, second + 5.0);
  // Second pings land within ~4 ms of the true RTT: ping2 works here.
  EXPECT_NEAR(second, 21.3, 4.0);
}

TEST(Ping2, LongPathsReSleepBeforeTheSecondPing) {
  // The paper's critique: at 85 ms (> Tis = 50 ms) the bus re-sleeps
  // between the first reply and the second ping's arrival.
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 85_ms;
  Testbed testbed(scenario);
  testbed.settle(800_ms);
  const auto result = run_ping2(testbed, 40);
  const double second = stats::Summary(result.second_rtts_ms).median();
  EXPECT_GT(second - 86.3, 6.0);  // residual inflation ping2 cannot remove
}

TEST(Ping2, PsmBitesOnAggressiveHandsetsEvenAtModerateRtt) {
  // Nexus 4 (Tip ~40 ms): at 60 ms the phone dozes between the pings and
  // the second ping gets PSM-buffered at the AP — tens of ms of inflation.
  testbed::ScenarioSpec scenario;
  scenario.phones.front().profile = phone::PhoneProfile::nexus4();
  scenario.emulated_rtt = 60_ms;
  Testbed testbed(scenario);
  testbed.settle(800_ms);
  const auto result = run_ping2(testbed, 40);
  const double second = stats::Summary(result.second_rtts_ms).median();
  EXPECT_GT(second - 61.3, 20.0);
}

TEST(Ping2, ContractChecks) {
  Testbed testbed;
  Ping2Prober::Config config;
  config.pairs = 0;
  EXPECT_THROW(
      Ping2Prober(testbed.simulator(), testbed.server(), config),
      sim::ContractViolation);
}

}  // namespace
}  // namespace acute::tools
