// The allocation-free event core, pinned by a counting global allocator:
// steady-state schedule_at/schedule_in/cancel/fire must perform ZERO heap
// allocations per event — closures live in EventClosure's inline buffer
// inside the pooled slots and cancel state is {slot, generation} (no
// shared_ptr). These tests replace operator new for the whole binary and
// diff the counter across a measured steady-state window. Two gates carry
// the rule up to whole testbeds: a saturated channel's queues allocate
// nothing once warm, and a deep campaign shard (four phones, the Fig. 8
// tool zoo, cross traffic) has a bounded marginal allocation count. A
// third pins the resume: each record of a checkpoint's restored prefix
// costs one parse and one fold, not a second parse.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "passive/observer.hpp"
#include "phone/profile.hpp"
#include "report/checkpoint.hpp"
#include "sim/closure.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "testbed/campaign.hpp"
#include "testbed/campaign_ledger.hpp"
#include "testbed/merge_frontier.hpp"
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

// ----------------------------------------------------------- restore

// 2,048 one-ping shards on a lazy rtt x reorder x loss grid: the
// tiny_pool shape whose checkpoint a resumed fabric restores.
testbed::CampaignSpec one_ping_spec() {
  testbed::ScenarioGrid grid;
  grid.emulated_rtts.clear();
  grid.loss_rates.clear();
  for (int i = 0; i < 64; ++i) {
    grid.emulated_rtts.push_back(Duration::millis(2 + i));
  }
  for (int i = 0; i < 16; ++i) grid.loss_rates.push_back(0.05 * i);
  grid.reorder = {false, true};
  testbed::CampaignSpec spec;
  spec.seed = 2016;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = Duration::millis(50);
  spec.probe_timeout = Duration::millis(400);
  spec.settle = Duration::millis(50);
  return spec;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Heap allocations of a full restore — ledger construction, start() and
// finish() — from the checkpoint at `path`, which holds shards
// 0..prefix-1: the one pending shard (max_shards = 1) is abandoned.
std::size_t restore_allocations(const std::string& path, std::size_t prefix) {
  testbed::CampaignSpec spec = one_ping_spec();
  spec.checkpoint_path = path;
  spec.max_shards = 1;
  const testbed::Campaign campaign(spec);
  const std::size_t allocations_before = g_heap_allocations;
  testbed::CampaignLedger ledger(campaign);
  EXPECT_EQ(ledger.restored(), prefix);
  ledger.start();
  for (const std::size_t index : ledger.pending()) ledger.abandon(index);
  const testbed::CampaignReport report = ledger.finish();
  const std::size_t allocations = g_heap_allocations - allocations_before;
  EXPECT_EQ(report.completed_shards(), prefix);
  return allocations;
}

// The restore parses each record of a checkpoint's leading restored run
// once: validation and the fold share the parse, so the marginal record of
// a 2,000-record canonical prefix over a 1,000-record one costs one
// parse_checkpoint_record and one fold_record, plus a sliver of
// bookkeeping (the flat offset vector doubles once between the two). A
// restore that parses the records again when the fold reaches them pays a
// second parse per record.
TEST(RestoreAllocation, TheRestoredPrefixIsParsedOnce) {
  const std::string full = "alloc_test_restore_2000.ckpt2";
  const std::string half = "alloc_test_restore_1000.ckpt2";
  std::remove(full.c_str());
  {
    testbed::CampaignSpec spec = one_ping_spec();
    spec.checkpoint_path = full;
    spec.max_shards = 2000;
    (void)testbed::Campaign(spec).run(/*workers=*/1);
  }
  const std::vector<std::string> lines = file_lines(full);
  ASSERT_EQ(lines.size(), 2000u);
  {
    std::ofstream out(half, std::ios::trunc);
    for (std::size_t i = 0; i < 1000; ++i) out << lines[i] << '\n';
  }

  // The bound: one parse and one fold of each record 1000..1999, on totals
  // that hold records 0..999 already, as the restore's fold does.
  testbed::CampaignReport::FoldedTotals totals;
  report::ShardCheckpoint record;
  std::size_t bound_allocations = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t before = g_heap_allocations;
    ASSERT_TRUE(report::parse_checkpoint_record(lines[i], record));
    testbed::fold_record(totals, std::move(record));
    if (i >= 1000) bound_allocations += g_heap_allocations - before;
  }
  const double bound = double(bound_allocations) / 1000.0;

  const std::size_t one_thousand = restore_allocations(half, 1000);
  const std::size_t two_thousand = restore_allocations(full, 2000);
  std::remove(full.c_str());
  std::remove(half.c_str());
  ASSERT_GT(two_thousand, one_thousand);
  const double per_record = double(two_thousand - one_thousand) / 1000.0;
  RecordProperty("marginal_allocations_per_restored_record",
                 std::to_string(per_record));
  RecordProperty("parse_and_fold_allocations_per_record",
                 std::to_string(bound));
  EXPECT_LE(per_record, bound + 0.01)
      << "1000 records: " << one_thousand << " allocations, 2000 records: "
      << two_thousand << "; one parse + one fold: " << bound;
}

}  // namespace
}  // namespace acute::sim
