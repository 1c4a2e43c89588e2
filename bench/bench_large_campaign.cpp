// Large-campaign smoke: a >= 10^4-shard lazily-iterated campaign driven to
// completion through incremental checkpointed ticks (the kill/resume ops
// pattern), asserting the memory story the million-shard design promises:
//
//   * no O(shards) scenario vector — the grid is iterated via at(i);
//   * the checkpoint compacts on every resume, so the file ends at exactly
//     one line per shard no matter how many ticks ran;
//   * peak RSS stays under a hard bound: the merge frontier folds each
//     completed shard into the campaign accumulators and frees its
//     digests, so retention is O(workers + reorder window) — independent
//     of shard count.
//
// Exits non-zero on any violated bound — wired into CI as the scale gate.
// --alloc-limit N adds a fourth bound: heap allocations per shard across
// the whole ticked sweep (counting global allocator, includes checkpoint
// restores) must stay <= N — the shard-context pool's steady-state
// guarantee, enforced alongside the RSS ceiling.
//
// Usage: bench_large_campaign [--shards N] [--ticks N] [--workers N]
//                             [--rss-limit-mb M] [--alloc-limit N]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>

#include <sys/resource.h>

#include "report/checkpoint.hpp"
#include "testbed/campaign.hpp"

using namespace acute;
using sim::Duration;

// Counting global allocator (atomic: pool workers allocate concurrently).
// Same idiom as tests/test_sim_alloc.cpp.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
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
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace {

std::size_t peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux.
  return static_cast<std::size_t>(usage.ru_maxrss) / 1024;
}

/// A lazy grid of at least `shards` minimal scenarios (one phone, one
/// probe): rtt x loss x reorder axes sized to cover the request.
testbed::CampaignSpec large_campaign(std::size_t shards,
                                     const std::string& checkpoint) {
  testbed::ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(Duration::millis(2 + i));
  }
  grid.reorder = {false, true};
  const std::size_t loss_steps = (shards + 99) / 100;  // 50 * 2 per step
  grid.loss_rates.clear();
  for (std::size_t i = 0; i < loss_steps; ++i) {
    grid.loss_rates.push_back(double(i) * (0.3 / double(loss_steps)));
  }
  testbed::CampaignSpec spec;
  spec.seed = 2016;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = Duration::millis(50);
  spec.probe_timeout = Duration::millis(400);
  spec.settle = Duration::millis(50);
  spec.checkpoint_path = checkpoint;
  return spec;
}

std::size_t file_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards = 10000;
  std::size_t ticks = 4;
  std::size_t workers = 4;
  std::size_t rss_limit_mb = 512;
  std::size_t alloc_limit = 0;  // allocs/shard budget; 0 disables the gate
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--ticks") == 0 && i + 1 < argc) {
      ticks = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--rss-limit-mb") == 0 && i + 1 < argc) {
      rss_limit_mb = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--alloc-limit") == 0 && i + 1 < argc) {
      alloc_limit = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards N] [--ticks N] [--workers N] "
                   "[--rss-limit-mb M] [--alloc-limit N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (ticks == 0) ticks = 1;

  const std::string checkpoint = "large_campaign.ckpt";
  std::remove(checkpoint.c_str());
  testbed::CampaignSpec spec = large_campaign(shards, checkpoint);
  const std::size_t total = testbed::Campaign(spec).scenario_count();
  std::printf("large campaign: %zu lazy shards, %zu ticks, %zu workers, "
              "RSS limit %zu MB\n",
              total, ticks, workers, rss_limit_mb);

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t allocs_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  std::size_t completed = 0;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    // Each tick constructs a fresh Campaign and resumes from the
    // checkpoint — in-process kill/resume: nothing but the file carries
    // state across ticks. The last tick runs uncapped to finish the sweep.
    testbed::CampaignSpec tick_spec = large_campaign(shards, checkpoint);
    if (tick + 1 < ticks) tick_spec.max_shards = (total + ticks - 1) / ticks;
    const testbed::CampaignReport report =
        testbed::Campaign(tick_spec).run(workers);
    if (report.completed_shards() <= completed && tick + 1 < ticks) {
      std::fprintf(stderr, "FAILED: tick %zu made no progress (%zu shards)\n",
                   tick, report.completed_shards());
      return 1;
    }
    completed = report.completed_shards();
    std::printf(
        "  tick %zu: %zu/%zu shards done, checkpoint %zu lines, "
        "peak RSS %zu MB (restore %.3fs)\n",
        tick, completed, total, file_lines(checkpoint), peak_rss_mb(),
        report.stage.restore);
    if (completed == total) break;
  }
  const std::uint64_t sweep_allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  int failures = 0;
  if (completed != total) {
    std::fprintf(stderr, "FAILED: only %zu of %zu shards completed\n",
                 completed, total);
    ++failures;
  }
  // One resume with nothing pending: the load path must compact the file
  // to exactly one line per shard and restore every digest.
  const testbed::CampaignReport final_report =
      testbed::Campaign(large_campaign(shards, checkpoint)).run(1);
  if (final_report.completed_shards() != total) {
    std::fprintf(stderr, "FAILED: final resume restored %zu of %zu shards\n",
                 final_report.completed_shards(), total);
    ++failures;
  }
  const std::size_t lines = file_lines(checkpoint);
  if (lines != total) {
    std::fprintf(stderr,
                 "FAILED: compacted checkpoint has %zu lines for %zu "
                 "shards\n",
                 lines, total);
    ++failures;
  }
  if (final_report.workload_digests().empty() ||
      final_report.total_probes() == 0) {
    std::fprintf(stderr, "FAILED: merged report is empty\n");
    ++failures;
  }
  const std::size_t rss = peak_rss_mb();
  if (rss > rss_limit_mb) {
    std::fprintf(stderr, "FAILED: peak RSS %zu MB exceeds limit %zu MB\n",
                 rss, rss_limit_mb);
    ++failures;
  }
  // Allocation budget: the whole ticked sweep — shards, checkpoint writes,
  // per-tick restores — amortized over the shard count. The warm context
  // pool keeps the per-shard contribution near zero; a regression that
  // reintroduces per-shard construction blows straight through any sane
  // budget.
  const double allocs_per_shard =
      total > 0 ? double(sweep_allocs) / double(total) : 0.0;
  if (alloc_limit > 0 && allocs_per_shard > double(alloc_limit)) {
    std::fprintf(stderr,
                 "FAILED: %.1f heap allocations per shard exceeds the "
                 "budget of %zu\n",
                 allocs_per_shard, alloc_limit);
    ++failures;
  }
  std::remove(checkpoint.c_str());
  std::printf(
      "large campaign %s: %zu shards in %.1fs wall, %zu probes "
      "(%zu lost), peak RSS %zu MB (limit %zu), %.1f allocs/shard%s\n",
      failures == 0 ? "OK" : "FAILED", total, wall,
      final_report.total_probes(), final_report.total_lost(), rss,
      rss_limit_mb, allocs_per_shard,
      alloc_limit > 0 ? "" : " (no budget)");
  return failures == 0 ? 0 : 1;
}
