// The merge frontier: campaign-level folding must be bit-identical for any
// worker count (the committed-file pins — kill/resume, a non-contiguous
// restored set, the fabric — live in test_golden_checkpoint), while
// actually releasing each shard's digest memory as it folds. The memory
// claim is pinned by a live-byte-counting global allocator (this binary
// replaces operator new, which is safe because every test file links into
// its own binary): the peak live heap must not grow with the shard count.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "campaign_testing.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign.hpp"
#include "testbed/merge_frontier.hpp"

namespace {
// Atomic live/peak byte tracking: campaign workers allocate concurrently.
// malloc_usable_size gives the true block size for both malloc and
// aligned_alloc on glibc, so frees can be accounted without a size map.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

void track_alloc(void* p) {
  const std::size_t live =
      g_live_bytes.fetch_add(malloc_usable_size(p),
                             std::memory_order_relaxed) +
      malloc_usable_size(p);
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
}

void track_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

/// Resets the peak watermark to the current live total and returns the
/// previous peak (call before a measured region).
void reset_peak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  track_alloc(p);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  void* p = std::aligned_alloc(al, rounded == 0 ? al : rounded);
  if (p == nullptr) throw std::bad_alloc();
  track_alloc(p);
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
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) track_alloc(p);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete(void* p) noexcept { track_free(p); std::free(p); }
void operator delete(void* p, std::size_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { track_free(p); std::free(p); }
void operator delete[](void* p, std::size_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  track_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  track_free(p);
  std::free(p);
}

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name) : path("frontier_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// The bench/test scaling shape: `shards` minimal one-phone one-probe
/// scenarios on a lazy rtt x loss x reorder grid (same axes as the
/// 10^4-shard determinism pin in test_campaign_lazy).
CampaignSpec scaled_spec(std::size_t shards) {
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(sim::Duration::millis(2 + i));
  }
  grid.reorder = {false, true};
  const std::size_t loss_steps = (shards + 99) / 100;
  grid.loss_rates.clear();
  for (std::size_t i = 0; i < loss_steps; ++i) {
    grid.loss_rates.push_back(double(i) * (0.3 / double(loss_steps)));
  }
  CampaignSpec spec;
  spec.seed = 2016;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = 50_ms;
  spec.probe_timeout = 400_ms;
  spec.settle = 50_ms;
  return spec;
}

/// A small mixed grid (8 shards) for the spec checks.
CampaignSpec small_spec() {
  ScenarioGrid grid;
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {12_ms};
  grid.loss_rates = {0.0, 0.2};
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping},
                    WorkloadSpec{ToolKind::httping}};
  CampaignSpec spec;
  spec.seed = 77;
  spec.grid = grid;
  spec.probes_per_phone = 6;
  spec.probe_interval = 150_ms;
  spec.probe_timeout = 1_s;
  return spec;
}

TEST(FrontierCampaign, RejectsTheRetiredBufferedModes) {
  // keep_samples / retain_shards select nothing any more: setting either
  // is a loud error pointing to CampaignSpec::sinks.
  CampaignSpec samples = small_spec();
  samples.keep_samples = true;
  EXPECT_THROW(Campaign{samples}, sim::ContractViolation);
  CampaignSpec retained = small_spec();
  retained.retain_shards = true;
  try {
    Campaign{retained};
    ADD_FAILURE() << "retain_shards=true was accepted";
  } catch (const sim::ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("sinks"), std::string::npos);
  }
}

/// The at-scale determinism pin: 10^4 shards, serial fold vs the 8-worker
/// pool, which races to park results and to become the single folder.
TEST(FrontierCampaign, TenThousandShardsBitIdenticalSerialAndPooled) {
  Campaign sizing(scaled_spec(10000));
  ASSERT_EQ(sizing.scenario_count(), 10000u);
  const CampaignReport serial = sizing.run(1);
  EXPECT_GT(serial.total_lost(), 0u);  // the loss axis actually bites
  const CampaignReport pool = Campaign(scaled_spec(10000)).run(8);
  EXPECT_EQ(testing::digest_dump(pool), testing::digest_dump(serial));

  // One thread never runs ahead of its own fold. The pool's peak is not
  // held to the park bound: it also counts results parked ahead of a gap,
  // which nobody waits on, so a descheduled worker holding the cursor
  // shard lets the others park hundreds on an oversubscribed host. The
  // MergeFrontierUnit tests below pin the bound itself.
  EXPECT_EQ(serial.frontier.high_water, 1u);
  EXPECT_GE(pool.frontier.high_water, 1u);
  EXPECT_LT(pool.frontier.high_water, pool.shard_count());
}

TEST(FrontierCampaign, RejectsCheckpointFromDifferentCampaign) {
  TempFile checkpoint("seed_mismatch");
  CampaignSpec first = small_spec();
  first.checkpoint_path = checkpoint.path;
  first.max_shards = 2;
  (void)Campaign(first).run(1);

  CampaignSpec other = small_spec();
  other.seed = first.seed + 1;
  other.checkpoint_path = checkpoint.path;
  EXPECT_THROW((void)Campaign(other).run(1), sim::ContractViolation);
}

TEST(FrontierCampaign, CompletedShardsReleaseDigestMemory) {
  // Each shard holds ~20 KB of digests until it folds; the frontier frees
  // them as it goes, so the campaign's peak live heap is O(workers), not
  // O(shards): 4x the shards may cost at most 1.5x the peak (the slack
  // covers the per-shard slot and pending-index bytes, 9 B per shard).
  // Measured with the binary-wide counting allocator, peak reset before
  // each run.
  const auto peak_of = [](std::size_t shards) {
    reset_peak();
    const std::size_t before = g_live_bytes.load(std::memory_order_relaxed);
    {
      const CampaignReport report = Campaign(scaled_spec(shards)).run(1);
      EXPECT_EQ(report.completed_shards(), shards);
    }
    return g_peak_bytes.load(std::memory_order_relaxed) - before;
  };
  const std::size_t small_peak = peak_of(1000);
  const std::size_t large_peak = peak_of(4000);
  EXPECT_GT(small_peak, 0u);
  EXPECT_LE(large_peak, small_peak * 3 / 2)
      << "peak live heap grew from " << small_peak << " B at 1000 shards to "
      << large_peak << " B at 4000";
}

// ------------------------------------------------------ MergeFrontier unit

using Slot = MergeFrontier::Slot;

/// A shard whose counters identify it, so the folded totals show exactly
/// which shards the fold consumed.
report::ShardCheckpoint numbered_shard(std::size_t index) {
  report::ShardCheckpoint record;
  record.summary.info.scenario_index = index;
  record.summary.probes_sent = index;
  return record;
}

/// A restored-slot feed that blocks inside the fold — with the frontier
/// lock released — until the test opens it, then returns (or throws).
struct GatedFeed {
  std::promise<void> entered;
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  bool fail = false;

  MergeFrontier::Feed callback() {
    return [this](std::size_t index) {
      entered.set_value();
      opened.wait();
      sim::expects(!fail, "GatedFeed: corrupt restored record");
      return numbered_shard(index);
    };
  }
};

TEST(MergeFrontierUnit, SubmitsParkedAheadOfAGapNeverBlock) {
  // Index 0 is the gap. Four threads park 1..40 with a park bound of 2:
  // nobody is folding, so none of them may wait — a submitter never waits
  // for a lower index that is still missing.
  constexpr std::size_t kShards = 41;
  CampaignReport::FoldedTotals totals;
  MergeFrontier frontier(std::vector<Slot>(kShards, Slot::fresh),
                         [](std::size_t) -> report::ShardCheckpoint {
                           ADD_FAILURE() << "no restored slots to feed";
                           return {};
                         },
                         totals, /*park_bound=*/2);
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < 4; ++t) {
    producers.emplace_back([&frontier, t] {
      for (std::size_t i = 1 + t; i < kShards; i += 4) {
        frontier.submit(i, numbered_shard(i));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(totals.completed, 0u);
  EXPECT_EQ(frontier.high_water(), kShards - 1);

  frontier.submit(0, numbered_shard(0));  // closes the gap: all fold
  frontier.finalize();
  EXPECT_EQ(totals.completed, kShards);
  EXPECT_EQ(totals.probes, kShards * (kShards - 1) / 2);
}

TEST(MergeFrontierUnit, SubmitterHeldAtTheParkBoundResumesOnceTheFolderDrains) {
  // 0 fresh, 1 restored (its feed blocks mid-fold), 2..4 fresh; bound 2.
  GatedFeed feed;
  CampaignReport::FoldedTotals totals;
  MergeFrontier frontier(
      {Slot::fresh, Slot::restored, Slot::fresh, Slot::fresh, Slot::fresh},
      feed.callback(), totals, /*park_bound=*/2);
  std::thread folder([&] { frontier.submit(0, numbered_shard(0)); });
  feed.entered.get_future().wait();  // the folder is inside the fold

  // Two results park without waiting while the fold runs...
  frontier.submit(2, numbered_shard(2));
  frontier.submit(3, numbered_shard(3));
  // ...the third meets the bound and must wait for the folder.
  std::atomic<bool> returned{false};
  std::thread held([&] {
    frontier.submit(4, numbered_shard(4));
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load());

  feed.open.set_value();
  folder.join();
  held.join();
  EXPECT_TRUE(returned.load());
  frontier.finalize();
  EXPECT_EQ(totals.completed, 5u);
  EXPECT_EQ(totals.probes, 0u + 1 + 2 + 3 + 4);
  EXPECT_EQ(frontier.high_water(), 2u);
}

TEST(MergeFrontierUnit, ThrowingFeedReachesTheFolderAndNothingHangs) {
  GatedFeed feed;
  feed.fail = true;
  CampaignReport::FoldedTotals totals;
  MergeFrontier frontier(
      {Slot::fresh, Slot::restored, Slot::fresh, Slot::fresh, Slot::fresh},
      feed.callback(), totals, /*park_bound=*/2);
  bool folder_saw_violation = false;
  std::thread folder([&] {
    try {
      frontier.submit(0, numbered_shard(0));
    } catch (const sim::ContractViolation&) {
      folder_saw_violation = true;
    }
  });
  feed.entered.get_future().wait();
  frontier.submit(2, numbered_shard(2));
  frontier.submit(3, numbered_shard(3));
  std::thread held([&] { frontier.submit(4, numbered_shard(4)); });

  feed.open.set_value();  // the feed throws; the waiting submitter wakes
  folder.join();
  held.join();
  EXPECT_TRUE(folder_saw_violation);
  EXPECT_EQ(totals.completed, 1u);  // shard 0 folded before the failure
  EXPECT_THROW(frontier.finalize(), sim::ContractViolation);
}

TEST(MergeFrontierUnit, TheCursorStartsPastTheFoldedPrefix) {
  // The restore folded shards 0 and 1 already: the feed sees only 3, and
  // the fold continues the same totals in ascending order.
  CampaignReport::FoldedTotals totals;
  fold_record(totals, numbered_shard(0));
  fold_record(totals, numbered_shard(1));
  std::vector<std::size_t> fed;
  MergeFrontier frontier(
      {Slot::restored, Slot::restored, Slot::fresh, Slot::restored},
      [&fed](std::size_t index) {
        fed.push_back(index);
        return numbered_shard(index);
      },
      totals, /*park_bound=*/0, /*folded_prefix=*/2);
  EXPECT_TRUE(fed.empty());
  frontier.submit(2, numbered_shard(2));
  frontier.finalize();
  EXPECT_EQ(fed, std::vector<std::size_t>{3});
  EXPECT_EQ(totals.completed, 4u);
  EXPECT_EQ(totals.probes, 0u + 1 + 2 + 3);

  // A pending shard cannot lie inside the folded prefix.
  CampaignReport::FoldedTotals other;
  EXPECT_THROW(MergeFrontier({Slot::restored, Slot::fresh},
                             [](std::size_t index) {
                               return numbered_shard(index);
                             },
                             other, /*park_bound=*/0, /*folded_prefix=*/2),
               sim::ContractViolation);
}

}  // namespace
}  // namespace acute::testbed
