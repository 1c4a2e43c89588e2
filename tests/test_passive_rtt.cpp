// Passive RTT vantage points, pinned end to end:
//
//   * PpingEstimator unit behavior — TSval/TSecr matching, first-seen-wins
//     under retransmission, match-once under duplicated/reordered echoes,
//     stale + capacity eviction, collided/non-TCP/unwatched filtering.
//   * PerAppMonitor unit behavior — probe-id pairing at the app boundary.
//   * Fig. 2 exactness — with a noiseless sniffer the estimator's samples
//     EQUAL (EXPECT_EQ, not NEAR) the air-stamp dn of each probe, and the
//     per-app monitor's samples EQUAL t_u^i - t_u^o from the stamps.
//   * Zero steady-state heap allocations on both observe paths (counting
//     global allocator) and zero Packet copies (thread-local copy probe).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/packet.hpp"
#include "passive/per_app.hpp"
#include "passive/pping.hpp"
#include "sim/contracts.hpp"
#include "testbed/testbed.hpp"
#include "tools/factory.hpp"
#include "tools/httping.hpp"
#include "tools/java_ping.hpp"

namespace {
// Plain (non-atomic) counter: these tests are single-threaded.
std::size_t g_heap_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_heap_allocations;
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  void* p = std::aligned_alloc(al, rounded == 0 ? al : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Nothrow variants too: libstdc++ internals (stable_sort's temporary
// buffer) allocate with new(nothrow) but free through plain delete — an
// incomplete replacement pairs the runtime's allocator with our free,
// which ASan rejects as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace acute::passive {
namespace {

using namespace acute::sim::literals;
using net::Packet;
using sim::Duration;
using sim::TimePoint;
using tools::ToolKind;

constexpr net::NodeId kPhone = 1;
constexpr net::NodeId kServer = 4;
constexpr std::uint32_t kFlow = 7;

TimePoint at(std::int64_t ms) {
  return TimePoint::epoch() + Duration::millis(ms);
}

Packet tcp_out(std::uint32_t tsval, std::uint32_t flow = kFlow) {
  Packet packet = Packet::make(net::PacketType::tcp_syn, net::Protocol::tcp,
                               kPhone, kServer, 60);
  packet.flow_id = flow;
  packet.tcp_ts.tsval = tsval;
  return packet;
}

Packet tcp_in(std::uint32_t tsecr, std::uint32_t flow = kFlow) {
  Packet packet = Packet::make(net::PacketType::tcp_syn, net::Protocol::tcp,
                               kServer, kPhone, 60);
  packet.flow_id = flow;
  packet.tcp_ts.tsecr = tsecr;
  return packet;
}

// ------------------------------------------------------------ pping units

TEST(PpingEstimator, MatchesTsvalToFirstTsecrEcho) {
  PpingEstimator pping;
  pping.watch_flow(kPhone, kFlow, /*phone_index=*/2, ToolKind::httping);
  pping.on_capture(tcp_out(100), kPhone, 2, at(10), false);
  EXPECT_EQ(pping.outstanding(), 1u);
  pping.on_capture(tcp_in(100), 2, kPhone, at(15), false);
  ASSERT_EQ(pping.samples().size(), 1u);
  const RttSample& sample = pping.samples()[0];
  EXPECT_EQ(sample.rtt_ms, 5.0);
  EXPECT_EQ(sample.phone_index, 2u);
  EXPECT_EQ(sample.tool, ToolKind::httping);
  EXPECT_EQ(sample.ordinal, 0);
  EXPECT_EQ(sample.matched_at, at(15));
  EXPECT_EQ(pping.outstanding(), 0u);
  EXPECT_EQ(pping.min_rtt_ms(2), 5.0);
  EXPECT_EQ(pping.min_rtt_ms(0), -1.0);  // no samples for that phone
}

TEST(PpingEstimator, RetransmissionDoesNotRestartTheClock) {
  PpingEstimator pping;
  pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
  pping.on_capture(tcp_out(42), kPhone, 2, at(0), false);
  // The same TSval captured again (link-layer retransmission): the original
  // capture time must win, or loss would *shrink* the estimate.
  pping.on_capture(tcp_out(42), kPhone, 2, at(6), false);
  EXPECT_EQ(pping.outstanding(), 1u);
  pping.on_capture(tcp_in(42), 2, kPhone, at(20), false);
  ASSERT_EQ(pping.samples().size(), 1u);
  EXPECT_EQ(pping.samples()[0].rtt_ms, 20.0);
}

TEST(PpingEstimator, DuplicateEchoMatchesOnce) {
  PpingEstimator pping;
  pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
  pping.on_capture(tcp_out(42), kPhone, 2, at(0), false);
  pping.on_capture(tcp_in(42), 2, kPhone, at(8), false);
  pping.on_capture(tcp_in(42), 2, kPhone, at(9), false);  // duplicated echo
  ASSERT_EQ(pping.samples().size(), 1u);
  EXPECT_EQ(pping.samples()[0].rtt_ms, 8.0);
}

TEST(PpingEstimator, ReorderedEchoesEachMatchTheirOwnTsval) {
  PpingEstimator pping;
  pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
  pping.on_capture(tcp_out(1), kPhone, 2, at(0), false);
  pping.on_capture(tcp_out(2), kPhone, 2, at(3), false);
  // Echoes arrive out of order: each still pairs with its own TSval.
  pping.on_capture(tcp_in(2), 2, kPhone, at(10), false);
  pping.on_capture(tcp_in(1), 2, kPhone, at(12), false);
  ASSERT_EQ(pping.samples().size(), 2u);
  EXPECT_EQ(pping.samples()[0].rtt_ms, 7.0);   // tsval 2: 10 - 3
  EXPECT_EQ(pping.samples()[1].rtt_ms, 12.0);  // tsval 1: 12 - 0
  EXPECT_EQ(pping.samples()[0].ordinal, 0);
  EXPECT_EQ(pping.samples()[1].ordinal, 1);
}

TEST(PpingEstimator, StaleEntriesAreEvictedUnmatched) {
  PpingEstimator::Config config;
  config.stale_after = 100_ms;
  PpingEstimator pping(config);
  pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
  pping.on_capture(tcp_out(5), kPhone, 2, at(0), false);
  // The next send is far past the staleness horizon: entry 5 is evicted.
  pping.on_capture(tcp_out(6), kPhone, 2, at(500), false);
  EXPECT_EQ(pping.evicted(), 1u);
  EXPECT_EQ(pping.outstanding(), 1u);
  pping.on_capture(tcp_in(5), 2, kPhone, at(501), false);
  EXPECT_TRUE(pping.samples().empty());  // the evicted entry cannot match
}

TEST(PpingEstimator, PerFlowCapEvictsTheOldestEntry) {
  PpingEstimator::Config config;
  config.max_outstanding = 2;
  PpingEstimator pping(config);
  pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
  pping.on_capture(tcp_out(1), kPhone, 2, at(0), false);
  pping.on_capture(tcp_out(2), kPhone, 2, at(1), false);
  pping.on_capture(tcp_out(3), kPhone, 2, at(2), false);  // evicts tsval 1
  EXPECT_EQ(pping.outstanding(), 2u);
  EXPECT_EQ(pping.evicted(), 1u);
  pping.on_capture(tcp_in(1), 2, kPhone, at(3), false);
  EXPECT_TRUE(pping.samples().empty());
  pping.on_capture(tcp_in(3), 2, kPhone, at(4), false);
  EXPECT_EQ(pping.samples().size(), 1u);
}

TEST(PpingEstimator, IgnoresCollidedNonTcpAndUnwatchedTraffic) {
  PpingEstimator pping;
  pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
  pping.on_capture(tcp_out(9), kPhone, 2, at(0), true);  // collided
  EXPECT_EQ(pping.outstanding(), 0u);
  Packet udp = Packet::make(net::PacketType::udp_data, net::Protocol::udp,
                            kPhone, kServer, 60);
  udp.flow_id = kFlow;
  pping.on_capture(udp, kPhone, 2, at(1), false);  // not TCP
  EXPECT_EQ(pping.outstanding(), 0u);
  pping.on_capture(tcp_out(9, kFlow + 1), kPhone, 2, at(2), false);  // flow
  EXPECT_EQ(pping.outstanding(), 0u);
  Packet no_ts = tcp_out(0);  // TCP without the timestamp option
  pping.on_capture(no_ts, kPhone, 2, at(3), false);
  EXPECT_EQ(pping.outstanding(), 0u);
}

TEST(PpingEstimator, RewatchingAWatchedFlowIsAContractViolation) {
  PpingEstimator pping;
  pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
  EXPECT_THROW(pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping),
               sim::ContractViolation);
  pping.reset();  // reset retires the watch, so re-watching is fine again
  pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
}

// ---------------------------------------------------------- per-app units

Packet app_out(std::uint64_t probe_id) {
  Packet packet = Packet::make(net::PacketType::tcp_syn, net::Protocol::tcp,
                               kPhone, kServer, 60);
  packet.flow_id = kFlow;
  packet.probe_id = probe_id;
  return packet;
}

Packet app_in(std::uint64_t probe_id) {
  Packet packet = Packet::make(net::PacketType::tcp_syn, net::Protocol::tcp,
                               kServer, kPhone, 60);
  packet.flow_id = kFlow;
  packet.probe_id = probe_id;
  return packet;
}

TEST(PerAppMonitor, PairsSendsWithDeliveriesByProbeId) {
  PerAppMonitor monitor;
  monitor.watch_flow(kPhone, kFlow, 1, ToolKind::java_ping);
  monitor.on_app_send(app_out(11), at(0));
  monitor.on_app_send(app_out(12), at(5));
  EXPECT_EQ(monitor.outstanding(), 2u);
  // Deliveries pair by probe id, not arrival order.
  monitor.on_app_deliver(app_in(12), at(20));
  monitor.on_app_deliver(app_in(11), at(30));
  ASSERT_EQ(monitor.samples().size(), 2u);
  EXPECT_EQ(monitor.samples()[0].rtt_ms, 15.0);
  EXPECT_EQ(monitor.samples()[1].rtt_ms, 30.0);
  EXPECT_EQ(monitor.samples()[0].phone_index, 1u);
  EXPECT_EQ(monitor.samples()[0].tool, ToolKind::java_ping);
  EXPECT_EQ(monitor.outstanding(), 0u);
}

TEST(PerAppMonitor, MatchOnceAndFirstSeenWins) {
  PerAppMonitor monitor;
  monitor.watch_flow(kPhone, kFlow, 0, ToolKind::java_ping);
  monitor.on_app_send(app_out(5), at(0));
  monitor.on_app_send(app_out(5), at(3));  // app-level resend: ignored
  monitor.on_app_deliver(app_in(5), at(10));
  monitor.on_app_deliver(app_in(5), at(11));  // duplicate delivery
  ASSERT_EQ(monitor.samples().size(), 1u);
  EXPECT_EQ(monitor.samples()[0].rtt_ms, 10.0);
}

TEST(PerAppMonitor, IgnoresBackgroundAndUnwatchedTraffic) {
  PerAppMonitor monitor;
  monitor.watch_flow(kPhone, kFlow, 0, ToolKind::java_ping);
  monitor.on_app_send(app_out(0), at(0));  // probe_id 0 = background
  EXPECT_EQ(monitor.outstanding(), 0u);
  Packet other = app_out(9);
  other.flow_id = kFlow + 1;
  monitor.on_app_send(other, at(1));
  EXPECT_EQ(monitor.outstanding(), 0u);
}

// ------------------------------------------------- Fig. 2 exactness (dn)

TEST(PassiveFig2, SnifferEstimatorEqualsAirStampDnExactly) {
  // Noiseless sniffer: its capture time IS the frame's TX start, the same
  // instant the air stamps record — so the passive estimate must equal the
  // stamp-derived dn bit for bit, probe by probe.
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 20_ms;
  scenario.sniffer_noise = Duration{};
  testbed::Testbed testbed(scenario);
  testbed.settle(500_ms);

  PpingEstimator pping;
  testbed.sniffer(0).attach_capture_observer(&pping);

  tools::MeasurementTool::Config tool_config;
  tool_config.probe_count = 15;
  tool_config.interval = 100_ms;
  tool_config.timeout = 2_s;
  tool_config.target = testbed::Testbed::kServerId;
  tools::JavaPing ping(testbed.phone(), tool_config);
  pping.watch_flow(testbed::Testbed::kPhoneId, ping.flow_id(), 0,
                   ToolKind::java_ping);
  ping.start();
  testbed.run_until_finished(ping);

  const auto& probes = ping.result().probes;
  ASSERT_EQ(probes.size(), 15u);
  ASSERT_EQ(pping.samples().size(), 15u);  // one TCP exchange per probe
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_FALSE(probes[i].timed_out);
    ASSERT_TRUE(probes[i].response.has_value());
    const net::Packet& response = *probes[i].response;
    ASSERT_TRUE(response.stamps.air.has_value());
    ASSERT_TRUE(response.request_stamps != nullptr &&
                response.request_stamps->air.has_value());
    const double dn_ms =
        (*response.stamps.air - *response.request_stamps->air).to_ms();
    EXPECT_EQ(pping.samples()[i].rtt_ms, dn_ms) << "probe " << i;
  }
  EXPECT_EQ(pping.outstanding(), 0u);
  EXPECT_EQ(pping.evicted(), 0u);
}

TEST(PassiveFig2, PerAppMonitorEqualsAppBoundaryStampsExactly) {
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 20_ms;
  testbed::Testbed testbed(scenario);
  testbed.settle(500_ms);

  PerAppMonitor monitor;
  testbed.phone().exec_env().attach_flow_tap(&monitor);

  tools::MeasurementTool::Config tool_config;
  tool_config.probe_count = 12;
  tool_config.interval = 100_ms;
  tool_config.timeout = 2_s;
  tool_config.target = testbed::Testbed::kServerId;
  tools::JavaPing ping(testbed.phone(), tool_config);
  monitor.watch_flow(testbed::Testbed::kPhoneId, ping.flow_id(), 0,
                     ToolKind::java_ping);
  ping.start();
  testbed.run_until_finished(ping);

  const auto& probes = ping.result().probes;
  ASSERT_EQ(probes.size(), 12u);
  ASSERT_EQ(monitor.samples().size(), 12u);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(probes[i].response.has_value());
    const net::Packet& response = *probes[i].response;
    ASSERT_TRUE(response.stamps.app_recv.has_value());
    ASSERT_TRUE(response.request_stamps != nullptr &&
                response.request_stamps->app_send.has_value());
    const double du_ms = (*response.stamps.app_recv -
                          *response.request_stamps->app_send)
                             .to_ms();
    EXPECT_EQ(monitor.samples()[i].rtt_ms, du_ms) << "probe " << i;
  }
}

TEST(PassiveFig2, HttpingEmitsOneSamplePerTcpExchange) {
  // httping reuses one connection: the handshake SYN plus each HTTP request
  // is a TSval-carrying exchange, so N probes yield N+1 passive samples —
  // the estimator sees flow traffic, not the tool's probe abstraction.
  testbed::ScenarioSpec scenario;
  scenario.emulated_rtt = 20_ms;
  scenario.sniffer_noise = Duration{};
  testbed::Testbed testbed(scenario);
  testbed.settle(500_ms);
  PpingEstimator pping;
  testbed.sniffer(0).attach_capture_observer(&pping);
  tools::MeasurementTool::Config tool_config;
  tool_config.probe_count = 10;
  tool_config.interval = 100_ms;
  tool_config.timeout = 2_s;
  tool_config.target = testbed::Testbed::kServerId;
  tools::HttPing httping(testbed.phone(), tool_config);
  pping.watch_flow(testbed::Testbed::kPhoneId, httping.flow_id(), 0,
                   ToolKind::httping);
  httping.start();
  testbed.run_until_finished(httping);
  EXPECT_EQ(pping.samples().size(), 11u);
  for (const RttSample& sample : pping.samples()) {
    EXPECT_GT(sample.rtt_ms, 0.0);
  }
}

// ------------------------------------- zero allocations, zero Packet copies

TEST(PassiveAllocation, ObservePathsAllocateNothingInSteadyState) {
  PpingEstimator pping;
  PerAppMonitor monitor;
  const auto replay = [&](int rounds) {
    pping.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
    monitor.watch_flow(kPhone, kFlow, 0, ToolKind::httping);
    for (int i = 1; i <= rounds; ++i) {
      const auto tsval = static_cast<std::uint32_t>(i);
      pping.on_capture(tcp_out(tsval), kPhone, 2, at(2 * i), false);
      pping.on_capture(tcp_in(tsval), 2, kPhone, at(2 * i + 1), false);
      monitor.on_app_send(app_out(static_cast<std::uint64_t>(i)), at(2 * i));
      monitor.on_app_deliver(app_in(static_cast<std::uint64_t>(i)),
                             at(2 * i + 1));
    }
  };
  // Warm-up round: tables and sample vectors grow to their working size.
  replay(64);
  pping.reset();
  monitor.reset();
  // Steady state (the shard-context reuse shape: reset + rewatch + replay):
  // the observe path and the reset/rewatch cycle must not allocate at all.
  const std::size_t before = g_heap_allocations;
  net::Packet::reset_op_counters();
  replay(64);
  EXPECT_EQ(g_heap_allocations - before, 0u);
  EXPECT_EQ(net::Packet::op_counters().copies, 0u);
  EXPECT_EQ(pping.samples().size(), 64u);
  EXPECT_EQ(monitor.samples().size(), 64u);
}

TEST(PassiveAllocation, SnifferForwardingAddsNoPacketCopies) {
  // The estimator observes net::Packet strictly by reference: an attached
  // observer must not change the per-thread Packet copy count of a full
  // tool run compared with no observer at all.
  const auto copies_of_run = [](bool attach) {
    testbed::ScenarioSpec scenario;
    scenario.emulated_rtt = 10_ms;
    scenario.sniffer_noise = Duration{};
    testbed::Testbed testbed(scenario);
    testbed.settle(500_ms);
    PpingEstimator pping;
    if (attach) testbed.sniffer(0).attach_capture_observer(&pping);
    tools::MeasurementTool::Config tool_config;
    tool_config.probe_count = 8;
    tool_config.interval = 50_ms;
    tool_config.timeout = 2_s;
    tool_config.target = testbed::Testbed::kServerId;
    tools::JavaPing ping(testbed.phone(), tool_config);
    if (attach) {
      pping.watch_flow(testbed::Testbed::kPhoneId, ping.flow_id(), 0,
                       ToolKind::java_ping);
    }
    net::Packet::reset_op_counters();
    ping.start();
    testbed.run_until_finished(ping);
    if (attach) EXPECT_EQ(pping.samples().size(), 8u);
    return net::Packet::op_counters().copies;
  };
  EXPECT_EQ(copies_of_run(true), copies_of_run(false));
}

}  // namespace
}  // namespace acute::passive
