// Campaign-engine throughput: the worker-scaling ladder on a 10^4-shard
// lazily-iterated grid (with per-stage time breakdown), the serial
// events/sec anchor on the legacy 48-scenario grid, the per-workload tool
// matrix (streaming-digest mode), plus the zero-copy packet-path micro
// numbers — written to BENCH_campaign.json so future PRs can track the
// perf trajectory.
//
// Scaling numbers are only meaningful relative to the cores the process
// can actually use, so the JSON records hardware_concurrency AND the
// effective core count (CPU affinity mask) of the machine that produced
// it: a flat ladder on a 1-core container is physics, not contention.
//
// Usage: bench_campaign_throughput [--smoke] [--workers N] [--json PATH]
//                                  [--scaling-guard]
//   --smoke          8 shards on 2 workers (CI: drives the threaded pool
//                    path, the lossy netem axes AND a non-ping workload on
//                    every push)
//   --workers        top of the scaling ladder (default 16; intermediate
//                    1/2/4/8 rows always run)
//   --json           output path (default: BENCH_campaign.json in the cwd)
//   --scaling-guard  exit non-zero unless 8-worker scenarios/sec exceeds
//                    1.5x the 1-worker row — enforced only when >= 4
//                    effective cores are available (on fewer cores the
//                    guard prints the diagnosis and passes: a worker pool
//                    cannot beat physics)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fabric/coordinator.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "net/packet.hpp"
#include "testbed/campaign.hpp"
#include "testbed/experiment.hpp"
#include "tools/factory.hpp"

using namespace acute;
using sim::Duration;

// Counting global allocator: the shard-context pool's whole point is that a
// warm worker context runs shards without touching the heap, so the ladder
// reports allocs/shard measured for real. Atomic (relaxed): pool workers
// allocate concurrently. Same idiom as tests/test_sim_alloc.cpp.
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

// Pre-refactor baselines, measured at the commit before the move-based
// packet path landed (same container, Release, g++ 12): the 20-probe Fig. 2
// round trip of bench_micro_simcore and the Packet copies per ping probe.
constexpr double kPreRefactorRoundTripNs = 318776.0;
constexpr double kPreRefactorCopiesPerProbe = 25.1;

// events/s of the committed workers=1 row on the 48-scenario default grid
// before the allocation-free event core (std::function + shared_ptr cancel
// state) — the before/after anchor for the perf trajectory.
constexpr double kPreEventCoreEventsPerSec = 4612723.6;

double wall_seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Process-lifetime peak RSS in bytes (ru_maxrss is KB on Linux). The
/// per-rung values are monotone across the ladder — each records the
/// process peak as of that rung's end — so the first rung to hit a plateau
/// is the one that set it.
std::size_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

/// Cores this process may actually run on — the affinity mask, not the
/// machine's nominal core count (containers routinely pin to fewer).
std::size_t effective_cores() {
#ifdef __linux__
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

struct PoolRun {
  std::size_t workers = 0;
  double wall_seconds = 0;
  double scenarios_per_sec = 0;
  double probes_per_sec = 0;
  double events_per_sec = 0;
  std::size_t probes = 0;
  std::size_t lost = 0;
  /// Per-shard stage seconds summed across workers (campaign.hpp) plus the
  /// report-side digest read, timed here: stage.merge carries the streaming
  /// fold, so merge_seconds = stage.merge + the near-zero final
  /// workload_digests() call.
  testbed::StageSeconds stage;
  double merge_seconds = 0;
  /// Fraction of the summed per-shard stage time spent building shards —
  /// the stage the context pool attacks.
  double build_share = 0;
  /// Heap allocations per shard across the whole run (counting global
  /// allocator). A warm context pool drives the steady-state contribution
  /// toward zero; what remains is amortized warm-up plus report plumbing.
  double allocs_per_shard = 0;
  /// Process peak RSS (bytes) when this rung finished.
  std::size_t peak_rss = 0;
};

PoolRun run_pool(const testbed::CampaignSpec& spec, std::size_t workers) {
  testbed::Campaign campaign(spec);
  const std::uint64_t allocs_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  const testbed::CampaignReport report = campaign.run(workers);
  PoolRun run;
  run.workers = workers;
  run.wall_seconds = wall_seconds_since(start);
  const std::uint64_t run_allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
  const auto merge_start = std::chrono::steady_clock::now();
  const auto digests = report.workload_digests();
  run.merge_seconds = report.stage.merge + wall_seconds_since(merge_start);
  if (digests.empty()) std::fprintf(stderr, "warning: empty merge\n");
  run.scenarios_per_sec = double(report.shard_count()) / run.wall_seconds;
  run.probes_per_sec = double(report.total_probes()) / run.wall_seconds;
  run.events_per_sec = double(report.total_events()) / run.wall_seconds;
  run.probes = report.total_probes();
  run.lost = report.total_lost();
  run.stage = report.stage;
  const double stage_total = run.stage.build + run.stage.simulate +
                             run.stage.sink + run.merge_seconds;
  if (stage_total > 0) run.build_share = run.stage.build / stage_total;
  if (report.shard_count() > 0) {
    run.allocs_per_shard = double(run_allocs) / double(report.shard_count());
  }
  run.peak_rss = peak_rss_bytes();
  return run;
}

// Distributed-fabric rung: the same scaling grid served by a coordinator to
// forked worker *processes* over the pipe transport (docs/fabric.md). The
// delta against the in-process ladder row with the same worker count is the
// price of process isolation: wire framing, ckpt2 text round-trips and the
// lease protocol.
struct FabricRun {
  std::size_t workers = 0;
  double wall_seconds = 0;
  double scenarios_per_sec = 0;
  double probes_per_sec = 0;
  std::size_t leases_granted = 0;
  /// lease_request -> lease_grant round-trips per second — the protocol
  /// overhead axis the batch size amortizes.
  double lease_roundtrips_per_sec = 0;
};

FabricRun run_fabric(const testbed::CampaignSpec& spec, std::size_t workers) {
  std::vector<std::unique_ptr<fabric::Transport>> coordinator_ends;
  std::vector<pid_t> children;
  for (std::size_t i = 0; i < workers; ++i) {
    auto ends = fabric::transport_pair();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: drop every inherited coordinator end (so a sibling's death
      // reaches the coordinator as EOF), serve leases, leave without
      // flushing the parent's stdio buffers twice.
      coordinator_ends.clear();
      ends.first.reset();
      fabric::Worker worker(spec);
      (void)worker.run(*ends.second);
      std::_Exit(0);
    }
    children.push_back(pid);
    coordinator_ends.push_back(std::move(ends.first));
    // ends.second (the parent's copy of the worker end) closes here, so
    // only the child holds it.
  }
  fabric::Coordinator coordinator(spec, {});
  const auto start = std::chrono::steady_clock::now();
  const testbed::CampaignReport report =
      coordinator.run(std::move(coordinator_ends));
  FabricRun run;
  run.workers = workers;
  run.wall_seconds = wall_seconds_since(start);
  for (const pid_t pid : children) ::waitpid(pid, nullptr, 0);
  run.scenarios_per_sec = double(report.shard_count()) / run.wall_seconds;
  run.probes_per_sec = double(report.total_probes()) / run.wall_seconds;
  run.leases_granted = coordinator.stats().leases_granted;
  run.lease_roundtrips_per_sec =
      double(run.leases_granted) / run.wall_seconds;
  return run;
}

struct PacketPath {
  double roundtrip_ns = 0;       // 20-probe Fig. 2 run, amortized
  double copies_per_probe = 0;   // Packet copy constructions per probe
};

PacketPath measure_packet_path() {
  // Mirrors bench_micro_simcore's BM_FullProbeRoundTrip without requiring
  // google-benchmark: repeat 20-probe AcuteMon-style runs and amortize.
  constexpr int kRuns = 40;
  net::Packet::reset_op_counters();
  const auto start = std::chrono::steady_clock::now();
  std::size_t samples = 0;
  for (int i = 0; i < kRuns; ++i) {
    testbed::ScenarioSpec spec;
    spec.phones.front().workload = {.tool = tools::ToolKind::acutemon,
                                    .probe_count = 20};
    spec.emulated_rtt = Duration::millis(10);
    samples += testbed::Experiment::run(spec).samples.size();
  }
  PacketPath path;
  path.roundtrip_ns = wall_seconds_since(start) * 1e9 / kRuns;
  path.copies_per_probe =
      double(net::Packet::op_counters().copies) / double(kRuns * 20);
  if (samples == 0) std::fprintf(stderr, "warning: no samples collected\n");
  return path;
}

/// The legacy 48-scenario materialized grid: the serial events/sec anchor
/// row keeps the before/after trajectory against kPreEventCoreEventsPerSec
/// comparable across PRs.
testbed::CampaignSpec anchor_campaign() {
  testbed::ScenarioGrid grid;
  grid.phone_counts = {1, 2, 4};
  grid.profiles = {phone::PhoneProfile::nexus5(),
                   phone::PhoneProfile::nexus4()};
  grid.radios = {phone::RadioKind::wifi, phone::RadioKind::cellular};
  grid.emulated_rtts = {Duration::millis(10), Duration::millis(30)};
  grid.cross_traffic = {false, true};
  testbed::CampaignSpec spec;
  spec.seed = 42;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 10;
  spec.probe_interval = Duration::millis(200);
  return spec;
}

/// The scaling grid: 10^4 minimal shards (one phone, one probe each),
/// iterated lazily — shards are cheap enough that pool mechanics (claim
/// path, shared-writer contention, per-shard construction) dominate, which
/// is exactly what the ladder must expose.
testbed::CampaignSpec scaling_campaign() {
  testbed::ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(Duration::millis(2 + i));
  }
  grid.loss_rates.clear();
  for (int i = 0; i < 100; ++i) grid.loss_rates.push_back(i * 0.003);
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

testbed::CampaignSpec smoke_campaign() {
  // Eight shards (loss x reorder x workload) so the 2-worker smoke run
  // enters the threaded pool AND exercises the lossy/reordering netem axes
  // AND a non-ping workload (httping, through the tool factory + streaming
  // digests) on every CI push.
  testbed::ScenarioGrid grid;
  grid.emulated_rtts = {Duration::millis(10)};
  grid.loss_rates = {0.0, 0.05};
  grid.reorder = {false, true};
  grid.workloads = {testbed::WorkloadSpec{tools::ToolKind::icmp_ping},
                    testbed::WorkloadSpec{tools::ToolKind::httping}};
  testbed::CampaignSpec spec;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 5;
  spec.probe_interval = Duration::millis(200);
  return spec;
}

// Per-workload throughput matrix: the same small grid once per tool kind,
// so the JSON carries a scenarios/s row per workload. A row is one 6-12 ms
// campaign, which a single shot times to within 3x on a shared host, so
// each row is the median of kMatrixShots shots, with the fastest and the
// slowest beside it.
constexpr int kMatrixShots = 5;

struct WorkloadRow {
  tools::ToolKind kind = tools::ToolKind::icmp_ping;
  double wall_seconds = 0;  // median shot
  double wall_seconds_min = 0;
  double wall_seconds_max = 0;
  double scenarios_per_sec = 0;
  double probes_per_sec = 0;
  double median_rtt_ms = 0;
  std::size_t probes = 0;
  std::size_t lost = 0;
};

WorkloadRow run_workload(tools::ToolKind kind, std::size_t workers) {
  testbed::ScenarioGrid grid;
  grid.profiles = {phone::PhoneProfile::nexus5(),
                   phone::PhoneProfile::nexus4()};
  grid.emulated_rtts = {Duration::millis(10), Duration::millis(30)};
  grid.cross_traffic = {false, true};
  grid.workloads = {testbed::WorkloadSpec{kind}};
  testbed::CampaignSpec spec;
  spec.seed = 42;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 10;
  spec.probe_interval = Duration::millis(200);

  testbed::Campaign campaign(spec);
  std::vector<double> walls;
  testbed::CampaignReport report;  // every shot's is bit-identical
  for (int shot = 0; shot < kMatrixShots; ++shot) {
    const auto start = std::chrono::steady_clock::now();
    report = campaign.run(workers);
    walls.push_back(wall_seconds_since(start));
  }
  std::sort(walls.begin(), walls.end());
  WorkloadRow row;
  row.kind = kind;
  row.wall_seconds = walls[walls.size() / 2];
  row.wall_seconds_min = walls.front();
  row.wall_seconds_max = walls.back();
  row.scenarios_per_sec = double(report.shard_count()) / row.wall_seconds;
  row.probes_per_sec = double(report.total_probes()) / row.wall_seconds;
  row.probes = report.total_probes();
  row.lost = report.total_lost();
  if (report.total_probes() > report.total_lost()) {
    row.median_rtt_ms = report.rtt_digest().quantile(0.5);
  }
  return row;
}

// Passive-vantage overhead rung: the same TCP-workload grid twice — once
// active-only, once with both passive observers (sniffer pping + per-app
// monitor) attached — best of three each. The observers sit on the capture
// and demux hot paths of every frame, so this is the number that catches a
// regression from "pure observer" to "accidental participant"; the budget
// is <= 5% wall overhead.
struct PassiveOverhead {
  double active_seconds = 0;
  double passive_seconds = 0;
  double overhead = 0;  // passive/active - 1
  std::size_t passive_samples = 0;
};

PassiveOverhead run_passive_overhead(std::size_t workers) {
  const auto build_spec = [](passive::PassiveVantage vantage) {
    testbed::ScenarioGrid grid;
    grid.phone_counts = {1, 2};
    grid.emulated_rtts = {Duration::millis(10), Duration::millis(30)};
    grid.cross_traffic = {false, true};
    testbed::WorkloadSpec workload;
    workload.tool = tools::ToolKind::httping;  // TCP: the sniffer works
    workload.passive = vantage;
    grid.workloads = {workload};
    testbed::CampaignSpec spec;
    spec.seed = 42;
    spec.scenarios = grid.expand();
    // Large enough that each side runs ~0.5 s of wall: at the matrix's
    // ~70 ms scale the rung's run-to-run noise dwarfs a 5% budget.
    spec.probes_per_phone = 200;
    spec.probe_interval = Duration::millis(100);
    return spec;
  };
  constexpr int kRepetitions = 3;
  PassiveOverhead result;
  double active_best = 0, passive_best = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    {
      testbed::Campaign campaign(build_spec(passive::PassiveVantage::none));
      const auto start = std::chrono::steady_clock::now();
      (void)campaign.run(workers);
      const double wall = wall_seconds_since(start);
      if (active_best == 0 || wall < active_best) active_best = wall;
    }
    {
      testbed::Campaign campaign(build_spec(passive::PassiveVantage::both));
      const auto start = std::chrono::steady_clock::now();
      const testbed::CampaignReport report = campaign.run(workers);
      const double wall = wall_seconds_since(start);
      if (passive_best == 0 || wall < passive_best) passive_best = wall;
      if (rep == 0) {
        for (const report::WorkloadDigest& digest :
             report.workload_digests()) {
          result.passive_samples +=
              digest.passive_sniffer_samples + digest.passive_app_samples;
        }
      }
    }
  }
  result.active_seconds = active_best;
  result.passive_seconds = passive_best;
  result.overhead = passive_best / active_best - 1.0;
  return result;
}

void print_pool_run(const PoolRun& run) {
  std::printf(
      "  workers=%2zu  wall=%.3fs  scenarios/s=%.1f  probes/s=%.0f  "
      "events/s=%.0f  stages(build/sim/sink/merge)="
      "%.3f/%.3f/%.3f/%.3fs  allocs/shard=%.1f  rss=%.1fMB  "
      "(lost %zu/%zu)\n",
      run.workers, run.wall_seconds, run.scenarios_per_sec,
      run.probes_per_sec, run.events_per_sec, run.stage.build,
      run.stage.simulate, run.stage.sink, run.merge_seconds,
      run.allocs_per_shard, double(run.peak_rss) / (1024.0 * 1024.0),
      run.lost, run.probes);
}

void json_pool_run(std::FILE* json, const PoolRun& run, bool last) {
  std::fprintf(
      json,
      "      {\"workers\": %zu, \"wall_seconds\": %.4f, "
      "\"scenarios_per_sec\": %.2f, \"probes_per_sec\": %.1f, "
      "\"events_per_sec\": %.1f, \"probes\": %zu, \"lost\": %zu, "
      "\"peak_rss_bytes\": %zu, \"allocs_per_shard\": %.1f, "
      "\"build_share\": %.3f, "
      "\"stage_seconds\": {\"build\": %.4f, \"simulate\": %.4f, "
      "\"sink\": %.4f, \"merge\": %.4f}}%s\n",
      run.workers, run.wall_seconds, run.scenarios_per_sec,
      run.probes_per_sec, run.events_per_sec, run.probes, run.lost,
      run.peak_rss, run.allocs_per_shard, run.build_share, run.stage.build,
      run.stage.simulate, run.stage.sink, run.merge_seconds,
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool scaling_guard = false;
  std::size_t max_workers = 16;
  std::string json_path = "BENCH_campaign.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scaling-guard") == 0) {
      scaling_guard = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      max_workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--workers N] [--json PATH] "
                   "[--scaling-guard]\n",
                   argv[0]);
      return 1;
    }
  }
  if (max_workers == 0) max_workers = 1;

  const std::size_t hardware = std::thread::hardware_concurrency();
  const std::size_t cores = effective_cores();
  std::printf("host: hardware_concurrency=%zu effective_cores=%zu\n",
              hardware, cores);

  if (smoke) {
    const testbed::CampaignSpec spec = smoke_campaign();
    std::printf("campaign: %zu scenarios, %d probes/phone (smoke)\n",
                spec.scenarios.size(), spec.probes_per_phone);
    const PoolRun run = run_pool(spec, 2);
    print_pool_run(run);
    std::printf("packet path: measuring...\n");
    const PacketPath path = measure_packet_path();
    std::printf("  roundtrip=%.0f ns/20-probe run  copies/probe=%.1f\n",
                path.roundtrip_ns, path.copies_per_probe);
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(json,
                 "{\n"
                 "  \"host\": {\"hardware_concurrency\": %zu, "
                 "\"effective_cores\": %zu},\n"
                 "  \"campaign\": {\n"
                 "    \"smoke\": true,\n"
                 "    \"scenarios\": %zu,\n"
                 "    \"pool_runs\": [\n",
                 hardware, cores, spec.scenarios.size());
    json_pool_run(json, run, /*last=*/true);
    std::fprintf(json,
                 "    ]\n"
                 "  },\n"
                 "  \"packet_path\": {\n"
                 "    \"roundtrip_ns_per_20probe_run\": %.1f,\n"
                 "    \"copies_per_probe\": %.2f\n"
                 "  }\n"
                 "}\n",
                 path.roundtrip_ns, path.copies_per_probe);
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
  }

  // Serial anchor: the legacy 48-scenario grid, workers=1, comparable
  // against the committed pre-event-core events/sec. Best of three
  // repetitions: a single ~0.2s run is at the mercy of scheduler noise and
  // cold caches, which previously swung the vs-baseline ratio by almost 2x
  // between otherwise identical commits.
  constexpr int kAnchorRepetitions = 3;
  const testbed::CampaignSpec anchor_spec = anchor_campaign();
  std::printf("anchor: %zu scenarios, %d probes/phone, workers=1, "
              "best of %d\n",
              anchor_spec.scenarios.size(), anchor_spec.probes_per_phone,
              kAnchorRepetitions);
  PoolRun anchor = run_pool(anchor_spec, 1);
  for (int rep = 1; rep < kAnchorRepetitions; ++rep) {
    const PoolRun repeat = run_pool(anchor_spec, 1);
    if (repeat.events_per_sec > anchor.events_per_sec) anchor = repeat;
  }
  print_pool_run(anchor);
  std::printf(
      "  events/s vs pre-event-core baseline (%.0f): %.2fx\n",
      kPreEventCoreEventsPerSec,
      anchor.events_per_sec / kPreEventCoreEventsPerSec);

  // The scaling ladder: 10^4 lazy shards, 1/2/4/8/16 workers.
  const testbed::CampaignSpec scaling_spec = scaling_campaign();
  testbed::Campaign sizing(scaling_spec);
  std::printf("scaling grid: %zu lazy shards, %d probe/phone\n",
              sizing.scenario_count(), scaling_spec.probes_per_phone);
  std::vector<PoolRun> ladder;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{16}}) {
    if (workers > max_workers && workers != 1) continue;
    const PoolRun run = run_pool(scaling_spec, workers);
    ladder.push_back(run);
    print_pool_run(run);
  }
  double scaling_efficiency = 0;
  const PoolRun* eight = nullptr;
  for (const PoolRun& run : ladder) {
    if (run.workers == 8) eight = &run;
  }
  if (eight != nullptr && !ladder.empty()) {
    scaling_efficiency = eight->scenarios_per_sec /
                         ladder.front().scenarios_per_sec;
    std::printf("  scaling: 8-worker/1-worker scenarios/s = %.2fx "
                "(%zu effective cores)\n",
                scaling_efficiency, cores);
  }

  // The fabric rung: the same grid served to forked worker processes.
  std::vector<FabricRun> fabric_ladder;
  std::printf("fabric (coordinator + forked worker processes, same grid):\n");
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    if (workers > max_workers && workers != 1) continue;
    const FabricRun run = run_fabric(scaling_spec, workers);
    fabric_ladder.push_back(run);
    std::printf(
        "  workers=%2zu  wall=%.3fs  scenarios/s=%.1f  probes/s=%.0f  "
        "leases=%zu  lease-roundtrips/s=%.1f\n",
        run.workers, run.wall_seconds, run.scenarios_per_sec,
        run.probes_per_sec, run.leases_granted,
        run.lease_roundtrips_per_sec);
  }

  // Per-workload matrix: one row per tool kind on the same 8-scenario
  // grid, streaming-digest mode.
  std::vector<WorkloadRow> matrix;
  const std::size_t matrix_workers = std::min<std::size_t>(max_workers, 4);
  std::printf("workload matrix (8 scenarios/tool, %zu workers, streaming "
              "merge, median of %d shots [min, max]):\n",
              matrix_workers, kMatrixShots);
  for (const auto kind :
       {tools::ToolKind::acutemon, tools::ToolKind::icmp_ping,
        tools::ToolKind::httping, tools::ToolKind::java_ping}) {
    const WorkloadRow row = run_workload(kind, matrix_workers);
    matrix.push_back(row);
    std::printf(
        "  %-10s wall=%.4fs [%.4f, %.4f]  scenarios/s=%.1f  probes/s=%.0f  "
        "median=%.2f ms  (lost %zu/%zu)\n",
        tools::to_string(row.kind), row.wall_seconds, row.wall_seconds_min,
        row.wall_seconds_max, row.scenarios_per_sec, row.probes_per_sec,
        row.median_rtt_ms, row.lost, row.probes);
  }

  // Passive-vantage overhead: the <= 5% budget of the pure-observer rung.
  const PassiveOverhead passive = run_passive_overhead(matrix_workers);
  std::printf(
      "passive overhead (httping grid, both vantages, best of 3):\n"
      "  active=%.3fs  passive=%.3fs  overhead=%.1f%%  "
      "(%zu passive samples; budget <= 5%%)\n",
      passive.active_seconds, passive.passive_seconds,
      passive.overhead * 100.0, passive.passive_samples);

  std::printf("packet path: measuring...\n");
  const PacketPath path = measure_packet_path();
  std::printf(
      "  roundtrip=%.0f ns/20-probe run (pre-refactor %.0f, %.1fx)\n"
      "  copies/probe=%.1f (pre-refactor %.1f)\n",
      path.roundtrip_ns, kPreRefactorRoundTripNs,
      kPreRefactorRoundTripNs / path.roundtrip_ns, path.copies_per_probe,
      kPreRefactorCopiesPerProbe);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"host\": {\"hardware_concurrency\": %zu, "
               "\"effective_cores\": %zu},\n"
               "  \"campaign\": {\n"
               "    \"smoke\": false,\n"
               "    \"anchor\": {\n"
               "      \"scenarios\": %zu,\n"
               "      \"probes_per_phone\": %d,\n"
               "      \"workers\": 1,\n"
               "      \"repetitions\": %d,\n"
               "      \"events_per_sec\": %.1f,\n"
               "      \"baseline_events_per_sec\": %.1f,\n"
               "      \"events_per_sec_vs_baseline\": %.3f\n"
               "    },\n"
               "    \"scaling\": {\n"
               "      \"scenarios\": %zu,\n"
               "      \"lazy_grid\": true,\n"
               "      \"frontier_merge\": true,\n"
               "      \"probes_per_phone\": %d,\n"
               "      \"ladder\": [\n",
               hardware, cores, anchor_spec.scenarios.size(),
               anchor_spec.probes_per_phone, kAnchorRepetitions,
               anchor.events_per_sec,
               kPreEventCoreEventsPerSec,
               anchor.events_per_sec / kPreEventCoreEventsPerSec,
               sizing.scenario_count(), scaling_spec.probes_per_phone);
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    json_pool_run(json, ladder[i], i + 1 == ladder.size());
  }
  std::fprintf(json,
               "      ],\n"
               "      \"scaling_efficiency_8_workers\": %.3f\n"
               "    },\n"
               "    \"fabric\": {\n"
               "      \"scenarios\": %zu,\n"
               "      \"transport\": \"pipe\",\n"
               "      \"ladder\": [\n",
               scaling_efficiency, sizing.scenario_count());
  for (std::size_t i = 0; i < fabric_ladder.size(); ++i) {
    const FabricRun& run = fabric_ladder[i];
    std::fprintf(json,
                 "      {\"workers\": %zu, \"wall_seconds\": %.4f, "
                 "\"scenarios_per_sec\": %.2f, \"probes_per_sec\": %.1f, "
                 "\"leases_granted\": %zu, "
                 "\"lease_roundtrips_per_sec\": %.2f}%s\n",
                 run.workers, run.wall_seconds, run.scenarios_per_sec,
                 run.probes_per_sec, run.leases_granted,
                 run.lease_roundtrips_per_sec,
                 i + 1 < fabric_ladder.size() ? "," : "");
  }
  std::fprintf(json,
               "      ]\n"
               "    },\n"
               "    \"workload_matrix\": [\n");
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const WorkloadRow& row = matrix[i];
    std::fprintf(json,
                 "      {\"tool\": \"%s\", \"shots\": %d, "
                 "\"wall_seconds\": %.4f, \"wall_seconds_min\": %.4f, "
                 "\"wall_seconds_max\": %.4f, "
                 "\"scenarios_per_sec\": %.2f, \"probes_per_sec\": %.1f, "
                 "\"median_rtt_ms\": %.2f, \"probes\": %zu, "
                 "\"lost\": %zu}%s\n",
                 tools::to_string(row.kind), kMatrixShots, row.wall_seconds,
                 row.wall_seconds_min, row.wall_seconds_max,
                 row.scenarios_per_sec, row.probes_per_sec,
                 row.median_rtt_ms, row.probes, row.lost,
                 i + 1 < matrix.size() ? "," : "");
  }
  std::fprintf(json,
               "    ],\n"
               "    \"passive_overhead\": {\n"
               "      \"tool\": \"httping\",\n"
               "      \"vantage\": \"both\",\n"
               "      \"workers\": %zu,\n"
               "      \"active_seconds\": %.4f,\n"
               "      \"passive_seconds\": %.4f,\n"
               "      \"overhead\": %.4f,\n"
               "      \"overhead_budget\": 0.05,\n"
               "      \"passive_samples\": %zu\n"
               "    }\n"
               "  },\n"
               "  \"packet_path\": {\n"
               "    \"roundtrip_ns_per_20probe_run\": %.1f,\n"
               "    \"copies_per_probe\": %.2f,\n"
               "    \"pre_refactor_roundtrip_ns\": %.1f,\n"
               "    \"pre_refactor_copies_per_probe\": %.1f\n"
               "  }\n"
               "}\n",
               matrix_workers, passive.active_seconds,
               passive.passive_seconds, passive.overhead,
               passive.passive_samples, path.roundtrip_ns,
               path.copies_per_probe, kPreRefactorRoundTripNs,
               kPreRefactorCopiesPerProbe);
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());

  if (scaling_guard) {
    if (cores < 4) {
      std::printf(
          "scaling guard: SKIPPED — %zu effective core(s); a worker pool "
          "cannot scale without cores to run on\n",
          cores);
      return 0;
    }
    if (eight == nullptr || scaling_efficiency <= 1.5) {
      std::fprintf(stderr,
                   "scaling guard: FAILED — 8-worker scenarios/s is only "
                   "%.2fx the 1-worker row (need > 1.5x on %zu cores)\n",
                   scaling_efficiency, cores);
      return 1;
    }
    std::printf("scaling guard: OK (%.2fx on %zu cores)\n",
                scaling_efficiency, cores);
  }
  return 0;
}
