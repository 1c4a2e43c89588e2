// The merge frontier (CampaignSpec::retain_shards=false): campaign-level
// folding must be bit-identical to the legacy buffered merge for any worker
// count and across kill/resume — including a non-contiguous restored set —
// while actually releasing each shard's digest memory as it folds. The
// memory claim is pinned by a live-byte-counting global allocator (this
// binary replaces operator new, which is safe because every test file
// links into its own binary): the frontier's peak live heap must stay far
// below the buffered model's O(shards) digest retention.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report/jsonl_sink.hpp"
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The bench/test scaling shape: `shards` minimal one-phone one-probe
/// scenarios on a lazy rtt x loss x reorder grid (same axes as the
/// 10^4-shard determinism pin in test_campaign_lazy).
CampaignSpec scaled_spec(std::size_t shards, bool retain_shards) {
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
  spec.keep_samples = false;
  spec.retain_shards = retain_shards;
  return spec;
}

/// A small mixed grid cheap enough for resume/JSONL matrices (8 shards).
CampaignSpec small_spec(bool retain_shards) {
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
  spec.keep_samples = false;
  spec.retain_shards = retain_shards;
  return spec;
}

/// Bitwise comparison of the merged-report surface: digest quantiles are
/// EXPECT_EQ (not NEAR) on purpose — the frontier fold must reproduce the
/// buffered merge to the last bit.
void expect_reports_bit_identical(const CampaignReport& a,
                                  const CampaignReport& b) {
  const auto da = a.workload_digests();
  const auto db = b.workload_digests();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].tool, db[i].tool);
    EXPECT_EQ(da[i].probes, db[i].probes);
    EXPECT_EQ(da[i].lost, db[i].lost);
    EXPECT_EQ(da[i].reported_rtt_ms.count(), db[i].reported_rtt_ms.count());
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      EXPECT_EQ(da[i].reported_rtt_ms.quantile(q),
                db[i].reported_rtt_ms.quantile(q));
      EXPECT_EQ(da[i].du_ms.quantile(q), db[i].du_ms.quantile(q));
      EXPECT_EQ(da[i].dk_ms.quantile(q), db[i].dk_ms.quantile(q));
      EXPECT_EQ(da[i].dv_ms.quantile(q), db[i].dv_ms.quantile(q));
      EXPECT_EQ(da[i].dn_ms.quantile(q), db[i].dn_ms.quantile(q));
    }
  }
  EXPECT_EQ(a.total_probes(), b.total_probes());
  EXPECT_EQ(a.total_lost(), b.total_lost());
  EXPECT_EQ(a.total_frames(), b.total_frames());
  EXPECT_EQ(a.total_events(), b.total_events());
  EXPECT_EQ(a.total_sim_seconds(), b.total_sim_seconds());
  EXPECT_EQ(a.completed_shards(), b.completed_shards());
  EXPECT_EQ(a.shard_count(), b.shard_count());
}

TEST(FrontierCampaign, RequiresStreamingDigestMode) {
  CampaignSpec spec = small_spec(/*retain_shards=*/false);
  spec.keep_samples = true;  // raw sample vectors cannot be folded away
  EXPECT_THROW(Campaign{spec}, sim::ContractViolation);
}

TEST(FrontierCampaign, FoldMatchesBufferedMergeOnSmallGrid) {
  const CampaignReport buffered =
      Campaign(small_spec(/*retain_shards=*/true)).run(2);
  const CampaignReport folded =
      Campaign(small_spec(/*retain_shards=*/false)).run(2);
  EXPECT_FALSE(buffered.shards.empty());
  EXPECT_TRUE(folded.shards.empty());  // consumed by the fold
  EXPECT_TRUE(folded.frontier.active);
  expect_reports_bit_identical(folded, buffered);
}

/// The tentpole acceptance pin: 10^4 shards, frontier fold vs buffered
/// merge, 1 AND 8 workers — all four bit-identical. With 8 workers the
/// pool races to park results and to become the single folder.
TEST(FrontierCampaign, TenThousandShardsBitIdenticalToBufferedMerge) {
  Campaign sizing(scaled_spec(10000, /*retain_shards=*/true));
  ASSERT_EQ(sizing.scenario_count(), 10000u);
  const CampaignReport buffered = sizing.run(1);
  EXPECT_GT(buffered.total_lost(), 0u);  // the loss axis actually bites
  const CampaignReport frontier_serial =
      Campaign(scaled_spec(10000, /*retain_shards=*/false)).run(1);
  expect_reports_bit_identical(frontier_serial, buffered);
  const CampaignReport frontier_pool =
      Campaign(scaled_spec(10000, /*retain_shards=*/false)).run(8);
  expect_reports_bit_identical(frontier_pool, buffered);
  expect_reports_bit_identical(frontier_pool, frontier_serial);

  // One thread never runs ahead of its own fold. The pool's peak is not
  // held to the park bound: it also counts results parked ahead of a gap,
  // which nobody waits on, so a descheduled worker holding the cursor
  // shard lets the others park hundreds on an oversubscribed host. The
  // MergeFrontierUnit tests below pin the bound itself.
  EXPECT_EQ(frontier_serial.frontier.high_water, 1u);
  EXPECT_GE(frontier_pool.frontier.high_water, 1u);
  EXPECT_LT(frontier_pool.frontier.high_water, frontier_pool.shard_count());
}

TEST(FrontierCampaign, KillResumeMidFrontierBitIdentical) {
  const CampaignReport uninterrupted =
      Campaign(small_spec(/*retain_shards=*/true)).run(1);

  // Kill after 3 shards, tick 2 more, then finish — every resume goes
  // through the streaming validate/compact/feed path.
  TempFile checkpoint("kill_resume");
  for (const std::size_t cap : {std::size_t{3}, std::size_t{2}}) {
    CampaignSpec tick = small_spec(/*retain_shards=*/false);
    tick.checkpoint_path = checkpoint.path;
    tick.max_shards = cap;
    (void)Campaign(tick).run(2);
  }
  CampaignSpec final_spec = small_spec(/*retain_shards=*/false);
  final_spec.checkpoint_path = checkpoint.path;
  const CampaignReport resumed = Campaign(final_spec).run(2);
  EXPECT_EQ(resumed.completed_shards(), resumed.shard_count());
  expect_reports_bit_identical(resumed, uninterrupted);
}

TEST(FrontierCampaign, ResumesNonContiguousRestoredSet) {
  const CampaignReport uninterrupted =
      Campaign(small_spec(/*retain_shards=*/true)).run(1);

  // Complete the whole campaign, then punch holes in the checkpoint
  // (drop every third record): the restored set interleaves with freshly
  // re-run shards, which is exactly the ordering the frontier's
  // restored/fresh slot walk must get right.
  TempFile checkpoint("holes");
  CampaignSpec full = small_spec(/*retain_shards=*/false);
  full.checkpoint_path = checkpoint.path;
  (void)Campaign(full).run(2);
  std::vector<std::string> kept;
  {
    std::ifstream in(checkpoint.path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream tokens(line);
      std::string magic;
      std::size_t index = 0;
      tokens >> magic >> index;
      if (index % 3 != 1) kept.push_back(line);
    }
  }
  ASSERT_FALSE(kept.empty());
  {
    std::ofstream out(checkpoint.path, std::ios::trunc);
    for (const std::string& line : kept) out << line << '\n';
  }
  CampaignSpec resume = small_spec(/*retain_shards=*/false);
  resume.checkpoint_path = checkpoint.path;
  const CampaignReport resumed = Campaign(resume).run(2);
  EXPECT_EQ(resumed.completed_shards(), resumed.shard_count());
  expect_reports_bit_identical(resumed, uninterrupted);
}

TEST(FrontierCampaign, RejectsCheckpointFromDifferentCampaign) {
  TempFile checkpoint("seed_mismatch");
  CampaignSpec first = small_spec(/*retain_shards=*/false);
  first.checkpoint_path = checkpoint.path;
  first.max_shards = 2;
  (void)Campaign(first).run(1);

  CampaignSpec other = small_spec(/*retain_shards=*/false);
  other.seed = first.seed + 1;
  other.checkpoint_path = checkpoint.path;
  EXPECT_THROW((void)Campaign(other).run(1), sim::ContractViolation);
}

TEST(FrontierCampaign, JsonlExportByteIdenticalToBufferedMode) {
  // The frontier changes when shard *results* are folded, not when sink
  // events are delivered: the JSONL reorder window must produce the same
  // bytes in both retention modes and for any worker count.
  auto run_with = [](bool retain_shards, std::size_t workers,
                     const std::string& path) {
    CampaignSpec spec = small_spec(retain_shards);
    auto writer = std::make_shared<report::JsonlWriter>(path);
    spec.sinks = report::jsonl_sink_factory(writer);
    (void)Campaign(spec).run(workers);
  };
  TempFile buffered("jsonl_buffered");
  TempFile folded("jsonl_frontier");
  run_with(/*retain_shards=*/true, 1, buffered.path);
  run_with(/*retain_shards=*/false, 8, folded.path);
  const std::string buffered_bytes = read_file(buffered.path);
  ASSERT_FALSE(buffered_bytes.empty());
  EXPECT_EQ(buffered_bytes, read_file(folded.path));
}

TEST(FrontierCampaign, CompletedShardsReleaseDigestMemory) {
  // 2000 minimal shards hold ~20 KB of digests each when buffered
  // (~40 MB); the frontier frees each shard's digests as it folds, so its
  // peak live heap over the same campaign must stay a small fraction of
  // the buffered model's. Measured with the binary-wide counting
  // allocator, peak reset before each run.
  constexpr std::size_t kShards = 2000;
  reset_peak();
  const std::size_t before = g_live_bytes.load(std::memory_order_relaxed);
  {
    const CampaignReport buffered =
        Campaign(scaled_spec(kShards, /*retain_shards=*/true)).run(1);
    ASSERT_EQ(buffered.completed_shards(), kShards);
  }
  const std::size_t buffered_peak =
      g_peak_bytes.load(std::memory_order_relaxed) - before;

  reset_peak();
  const std::size_t before_frontier =
      g_live_bytes.load(std::memory_order_relaxed);
  {
    const CampaignReport folded =
        Campaign(scaled_spec(kShards, /*retain_shards=*/false)).run(1);
    ASSERT_EQ(folded.completed_shards(), kShards);
  }
  const std::size_t frontier_peak =
      g_peak_bytes.load(std::memory_order_relaxed) - before_frontier;

  // The buffered run must actually exhibit the O(shards) retention the
  // frontier removes (>= 4 KB/shard of digest state), and the frontier
  // must stay far below it — 1/4 is a loose bound; in practice it is
  // closer to 1/50 (O(workers) shards live at once instead of all 2000).
  EXPECT_GT(buffered_peak, kShards * 4096);
  EXPECT_LT(frontier_peak, buffered_peak / 4);
}

// ------------------------------------------------------ MergeFrontier unit

using Slot = MergeFrontier::Slot;

/// A shard whose counters identify it, so the folded totals show exactly
/// which shards the fold consumed.
ShardResult numbered_shard(std::size_t index) {
  ShardResult result;
  result.completed = true;
  result.scenario_index = index;
  result.probes_sent = index;
  return result;
}

/// A restored-slot feed that blocks inside the fold — with the frontier
/// lock released — until the test opens it, then returns (or throws).
struct GatedFeed {
  std::promise<void> entered;
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  bool fail = false;

  std::function<ShardResult(std::size_t)> callback() {
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
                         [](std::size_t) -> ShardResult {
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

}  // namespace
}  // namespace acute::testbed
