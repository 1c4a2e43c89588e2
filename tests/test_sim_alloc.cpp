// The allocation-free event core, pinned by a counting global allocator:
// steady-state schedule_at/schedule_in/cancel/fire must perform ZERO heap
// allocations per event — closures live in EventClosure's inline buffer
// inside the pooled slots and cancel state is {slot, generation} (no
// shared_ptr). These tests replace operator new for the whole binary and
// diff the counter across a measured steady-state window. Two gates carry
// the rule up to whole testbeds: a saturated channel's queues allocate
// nothing once warm, and a deep campaign shard (four phones, the Fig. 8
// tool zoo, cross traffic) has a bounded marginal allocation count.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "passive/observer.hpp"
#include "phone/profile.hpp"
#include "sim/closure.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "testbed/campaign.hpp"
#include "testbed/testbed.hpp"
#include "tools/factory.hpp"
#include "wifi/channel.hpp"

namespace {
// Plain (non-atomic) counter: one thread allocates at a time (a one-worker
// campaign's thread runs while the caller waits in join()).
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

namespace acute::sim {
namespace {

using namespace acute::sim::literals;

// The inline buffer is exactly as large as the fattest closure the stack
// layers schedule: a lambda owning a whole wifi::Frame (which embeds a
// net::Packet) plus two pointers. Equality, not >=: a Frame that grows
// would no longer compile at its schedule sites, and a Frame that shrinks
// fails here until the buffer (and every event slot) shrinks with it.
constexpr std::size_t round_up(std::size_t bytes, std::size_t align) {
  return (bytes + align - 1) / align * align;
}
static_assert(EventClosure::kInlineBytes ==
                  round_up(sizeof(wifi::Frame) + 2 * sizeof(void*),
                           EventClosure::kInlineAlign),
              "EventClosure inline buffer no longer matches a Frame capture");
static_assert(sizeof(EventClosure) == 256);

TEST(EventClosure, PacketAndFrameCapturesAreStoredInline) {
  net::Packet packet;
  wifi::Frame frame;
  auto packet_fn = [pkt = std::move(packet)]() mutable { (void)pkt; };
  auto frame_fn = [f = std::move(frame), extra = static_cast<void*>(nullptr),
                   more = static_cast<void*>(nullptr)]() mutable {
    (void)f;
    (void)extra;
    (void)more;
  };
  static_assert(EventClosure::fits_inline<decltype(packet_fn)>);
  static_assert(EventClosure::fits_inline<decltype(frame_fn)>);
  const std::size_t allocations_before = g_heap_allocations;
  EventClosure closure(std::move(frame_fn));
  EventClosure moved(std::move(closure));
  moved();
  EXPECT_EQ(g_heap_allocations, allocations_before);
  EXPECT_FALSE(closure);
  EXPECT_TRUE(moved);
}

// A probe-like event: carries a Packet-sized payload, re-arms a timeout
// (push + cancel, the campaign's dominant pattern) and reschedules itself.
struct ProbeChain {
  Simulator* sim;
  int* remaining;
  EventHandle* timeout;
  std::array<unsigned char, sizeof(net::Packet)> payload{};

  void operator()() {
    if (--*remaining <= 0) return;
    timeout->cancel();
    *timeout = sim->schedule_in(8_s, [] {});
    sim->schedule_in(10_us,
                     ProbeChain{sim, remaining, timeout, payload});
  }
};
static_assert(EventClosure::fits_inline<ProbeChain>);

TEST(EventCoreAllocation, SteadyStateSchedulingIsAllocationFree) {
  Simulator sim;
  int remaining = 4000;
  EventHandle timeout;
  sim.schedule_in(10_us, ProbeChain{&sim, &remaining, &timeout, {}});

  // Warm-up: grows the slot pool, the heap vector, the free list and the
  // compaction high-water marks to their steady-state footprint.
  while (remaining > 2000 && sim.step()) {
  }
  ASSERT_GT(remaining, 0);

  const std::size_t allocations_before = g_heap_allocations;
  const std::uint64_t events_before = sim.events_fired();
  while (remaining > 0 && sim.step()) {
  }
  EXPECT_EQ(g_heap_allocations, allocations_before)
      << "steady-state schedule/cancel/fire touched the heap";
  EXPECT_GE(sim.events_fired() - events_before, 2000u);

  // Drain the surviving timeouts; still allocation-free.
  const std::size_t allocations_mid = g_heap_allocations;
  (void)sim.run();
  EXPECT_EQ(g_heap_allocations, allocations_mid);
}

// A capture one byte too large for the inline buffer: there is no
// fallback storage, so it can be neither wrapped nor pushed.
struct OversizedCapture {
  std::array<unsigned char, EventClosure::kInlineBytes + 1> blob{};
  void operator()() {}
};
static_assert(!EventClosure::fits_inline<OversizedCapture>);
static_assert(!std::is_constructible_v<EventClosure, OversizedCapture>);

template <typename F>
constexpr bool kPushable = requires(EventQueue& queue, F fn) {
  queue.push(TimePoint{}, std::move(fn));
};
static_assert(kPushable<ProbeChain>);
static_assert(!kPushable<OversizedCapture>);

TEST(EventCoreAllocation, CancelIsAllocationFree) {
  Simulator sim;
  std::array<EventHandle, 64> handles;
  for (int round = 0; round < 4; ++round) {
    for (EventHandle& handle : handles) {
      handle = sim.schedule_in(1_ms, [] {});
    }
    for (EventHandle& handle : handles) handle.cancel();
    (void)sim.run_for(2_ms);
  }
  // Pool, heap and free list are warm: one more full round must be clean.
  const std::size_t allocations_before = g_heap_allocations;
  for (EventHandle& handle : handles) {
    handle = sim.schedule_in(1_ms, [] {});
  }
  for (EventHandle& handle : handles) handle.cancel();
  (void)sim.run_for(2_ms);
  EXPECT_EQ(g_heap_allocations, allocations_before);
}

// A saturated 802.11g channel (ten UDP flows into the load host's
// 1000-frame radio queue, which tail-drops about half of them) drains and
// refills its queues forever. Once the rings have grown to their peak,
// further simulated seconds must not touch the heap for the traffic
// itself. The one allocation source left is a log, not a queue: the idle
// phone's driver appends one dvsend entry per packet it sends (about one
// a second), so its fresh log's capacity doubles twice in the window,
// 1 -> 4 (two allocations; a warm shard context keeps that capacity).
TEST(TestbedAllocation, WarmCongestedChannelSecondsAreAllocationFree) {
  testbed::ScenarioSpec spec;
  spec.congested_phy = true;
  testbed::Testbed testbed(spec);
  testbed.settle(Duration::millis(100));
  testbed.start_cross_traffic();
  testbed.settle(Duration::seconds(1));

  const std::size_t allocations_before = g_heap_allocations;
  const std::uint64_t events_before = testbed.simulator().events_fired();
  testbed.settle(Duration::seconds(3));
  EXPECT_LE(g_heap_allocations - allocations_before, 2u)
      << "three warm seconds of cross traffic";
  EXPECT_GT(testbed.simulator().events_fired() - events_before, 15000u);
  EXPECT_GT(testbed.cross_traffic_throughput_mbps(), 1.0);
}

// `shards` copies of a deep_fleet-shaped scenario: four phones (Nexus 5 /
// Nexus 4 alternating) running the Fig. 8 tool zoo on one congested
// channel, at 10/30 ms emulated RTT.
testbed::CampaignSpec deep_shape_spec(std::size_t shards) {
  testbed::WorkloadSpec httping{tools::ToolKind::httping};
  httping.passive = passive::PassiveVantage::both;
  const std::vector<testbed::WorkloadSpec> zoo{
      testbed::WorkloadSpec{tools::ToolKind::acutemon},
      testbed::WorkloadSpec{tools::ToolKind::icmp_ping}, httping,
      testbed::WorkloadSpec{tools::ToolKind::java_ping}};
  testbed::CampaignSpec spec;
  for (std::size_t i = 0; i < shards; ++i) {
    testbed::ScenarioSpec scenario;
    scenario.phones.assign(4, testbed::PhoneSpec{});
    for (std::size_t p = 0; p < scenario.phones.size(); ++p) {
      scenario.phones[p].profile = p % 2 == 0 ? phone::PhoneProfile::nexus5()
                                              : phone::PhoneProfile::nexus4();
    }
    scenario.emulated_rtt = Duration::millis(i % 2 == 0 ? 10 : 30);
    scenario.congested_phy = true;
    scenario.assign_workloads(zoo);
    spec.scenarios.push_back(std::move(scenario));
  }
  spec.seed = 2026;
  spec.probes_per_phone = 30;
  spec.probe_interval = Duration::millis(200);
  return spec;
}

// Heap allocations of one single-worker run of deep_shape_spec(shards),
// spec construction excluded.
std::size_t deep_shape_run_allocations(std::size_t shards) {
  testbed::Campaign campaign(deep_shape_spec(shards));
  const std::size_t allocations_before = g_heap_allocations;
  const testbed::CampaignReport report = campaign.run(/*workers=*/1);
  const std::size_t allocations = g_heap_allocations - allocations_before;
  EXPECT_EQ(report.completed_shards(), shards);
  return allocations;
}

// The marginal cost of a deep shard on a warm worker: both runs share the
// same spec seed, so their first four shards are identical, and the
// difference is eight further shards with every per-run cost (the pool,
// the shard context's first build, the report) cancelled out.
TEST(TestbedAllocation, DeepShardMarginalAllocationsStayBounded) {
  const std::size_t four = deep_shape_run_allocations(4);
  const std::size_t twelve = deep_shape_run_allocations(12);
  ASSERT_GT(twelve, four);
  const double per_shard = double(twelve - four) / 8.0;
  RecordProperty("marginal_allocations_per_shard",
                 std::to_string(per_shard));
  EXPECT_LE(per_shard, 600.0) << "4 shards: " << four
                              << " allocations, 12 shards: " << twelve;
}

}  // namespace
}  // namespace acute::sim
