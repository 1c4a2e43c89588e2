// The three workloads: their seeded campaign specs and one measured
// repetition of each, driven only through testbed::Campaign and
// fabric::Coordinator / fabric::Worker.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "fabric/worker.hpp"
#include "stats/digest_io.hpp"

namespace perfbench {

using acute::sim::Duration;
using acute::tools::ToolKind;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// tiny_pool / fabric_resume: the bench_large_campaign grid (50 emulated
/// RTTs x reorder x an N-scaled loss axis) of one-phone, one-ping shards.
/// The seed picks the campaign seed and a sub-millisecond RTT offset.
testbed::CampaignSpec pool_spec(std::uint64_t seed, std::size_t shards) {
  const double offset_ms =
      double(splitmix64(seed) >> 11) * 0x1.0p-53;  // [0, 1)
  testbed::ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(Duration::millis(2.0 + i + offset_ms));
  }
  grid.reorder = {false, true};
  const std::size_t loss_steps = (shards + 99) / 100;
  grid.loss_rates.clear();
  for (std::size_t i = 0; i < loss_steps; ++i) {
    grid.loss_rates.push_back(double(i) * (0.3 / double(loss_steps)));
  }
  testbed::CampaignSpec spec;
  spec.seed = seed;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = Duration::millis(50);
  spec.probe_timeout = Duration::millis(400);
  spec.settle = Duration::millis(50);
  spec.keep_samples = false;
  spec.retain_shards = false;
  return spec;
}

/// deep_fleet: four phones (Nexus 5 / Nexus 4 alternating) per scenario on
/// one channel, running the Fig. 8 tool zoo side by side, at 10/30 ms
/// emulated RTT with cross traffic on/off; `replicas` copies of those four
/// scenarios (each copy is a different shard, so a different shard seed).
/// The cross-traffic shards cost ~10x the others and come first, so the
/// pool's last claims are cheap ones and a repetition does not end on one
/// worker finishing a heavy batch alone.
testbed::CampaignSpec fleet_spec(std::uint64_t seed, std::size_t replicas,
                                 int probes) {
  testbed::WorkloadSpec httping{ToolKind::httping};
  httping.passive = acute::passive::PassiveVantage::both;
  const std::vector<testbed::WorkloadSpec> mix{
      testbed::WorkloadSpec{ToolKind::acutemon},
      testbed::WorkloadSpec{ToolKind::icmp_ping}, httping,
      testbed::WorkloadSpec{ToolKind::java_ping}};
  testbed::CampaignSpec spec;
  for (const bool cross : {true, false}) {
    for (std::size_t r = 0; r < replicas; ++r) {
      for (const int rtt_ms : {10, 30}) {
        testbed::ScenarioSpec scenario;
        scenario.phones.assign(4, testbed::PhoneSpec{});
        for (std::size_t i = 0; i < scenario.phones.size(); ++i) {
          scenario.phones[i].profile =
              i % 2 == 0 ? acute::phone::PhoneProfile::nexus5()
                         : acute::phone::PhoneProfile::nexus4();
        }
        scenario.emulated_rtt = Duration::millis(rtt_ms);
        scenario.congested_phy = cross;
        scenario.assign_workloads(mix);
        spec.scenarios.push_back(std::move(scenario));
      }
    }
  }
  spec.seed = seed;
  spec.probes_per_phone = probes;
  spec.probe_interval = Duration::millis(200);
  spec.keep_samples = false;
  spec.retain_shards = false;
  return spec;
}

double rusage_cpu_s() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage usage {};
    if (getrusage(who, &usage) != 0) continue;
    total += double(usage.ru_utime.tv_sec) + 1e-6 * usage.ru_utime.tv_usec +
             double(usage.ru_stime.tv_sec) + 1e-6 * usage.ru_stime.tv_usec;
  }
  return total;
}

/// Restarts the kernel's record of this process's peak resident set
/// (VmHWM), so each repetition reports its own peak.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// This process's peak resident set since the last reset, in MiB.
double self_peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

std::size_t file_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

/// Forked fabric::Worker processes. Reaps them normally through reap();
/// the destructor kills and reaps whatever is left after an error, so no
/// worker outlives the benchmark.
class Fleet {
 public:
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    for (const pid_t pid : pids_) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  /// Forks `count` workers serving `spec`; returns the coordinator ends,
  /// each wrapped in a WireTap over `wire`. The caller is single-threaded
  /// here, so fork() is safe.
  std::vector<std::unique_ptr<fabric::Transport>> spawn(
      const testbed::CampaignSpec& spec, std::size_t count,
      WireCounters& wire) {
    std::vector<std::unique_ptr<fabric::Transport>> ends;
    for (std::size_t i = 0; i < count; ++i) {
      auto [coordinator_end, worker_end] = fabric::transport_pair();
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        // Child: close every coordinator end it inherited, so a sibling's
        // exit reaches the coordinator as EOF, serve, and leave without
        // running the parent's exit handlers.
        ends.clear();
        coordinator_end.reset();
        int status = 0;
        try {
          fabric::Worker worker(spec);
          (void)worker.run(*worker_end);
        } catch (const std::exception& error) {
          std::fprintf(stderr, "perfbench worker: %s\n", error.what());
          status = 2;
        }
        worker_end.reset();
        std::_Exit(status);
      }
      pids_.push_back(pid);
      ends.push_back(std::make_unique<WireTap>(std::move(coordinator_end),
                                               wire));
    }
    return ends;
  }

  /// Waits for every worker; throws unless all exited cleanly. Returns the
  /// largest peak resident set among them, in MiB.
  double reap() {
    std::vector<pid_t> pids;
    pids.swap(pids_);
    bool clean = true;
    double peak_mib = 0;
    for (const pid_t pid : pids) {
      int status = 0;
      struct rusage usage {};
      clean &= ::wait4(pid, &status, 0, &usage) == pid &&
               WIFEXITED(status) && WEXITSTATUS(status) == 0;
      peak_mib = std::max(peak_mib, double(usage.ru_maxrss) / 1024.0);
    }
    if (!clean) throw std::runtime_error("a fabric worker failed");
    return peak_mib;
  }

 private:
  std::vector<pid_t> pids_;
};

/// Copies the report's totals, per-tool medians and fingerprint into `rep`.
void summarize(const testbed::CampaignReport& report, Rep& rep) {
  rep.completed = report.completed_shards();
  rep.events = report.total_events();
  rep.frames = report.total_frames();
  rep.probes = report.total_probes();
  rep.fingerprint = fingerprint(report);
  rep.median_rtt_ms.assign(acute::tools::kToolKindCount,
                           std::numeric_limits<double>::quiet_NaN());
  for (const report::WorkloadDigest& digest : report.workload_digests()) {
    if (!digest.reported_rtt_ms.empty()) {
      rep.median_rtt_ms[acute::tools::tool_kind_index(digest.tool)] =
          digest.reported_rtt_ms.quantile(0.5);
    }
    rep.passive_sniffer_samples += digest.passive_sniffer_samples;
    rep.passive_app_samples += digest.passive_app_samples;
  }
}

void run_pool_rep(const Setup& setup, Trace* trace, std::int64_t parent,
                  Rep& rep) {
  const double cpu_before = rusage_cpu_s();
  std::int64_t serve_span = -1;
  testbed::CampaignSpec spec = setup.spec;
  if (trace != nullptr) spec.sinks = shard_span_sinks(*trace, serve_span);

  const double t0 = now_s();
  testbed::Campaign campaign(std::move(spec));
  // The campaign identity every result is stamped with; part of set-up.
  (void)campaign.spec().spec_hash();
  const double t1 = now_s();
  if (trace != nullptr) {
    trace->add(Span{"setup", t0, t1, parent, -1});
    serve_span = trace->begin("serve", parent);
    count_allocations(true);
  }
  const std::uint64_t allocations_before = allocations();
  const double caller_before = thread_cpu_s();
  const testbed::CampaignReport report = campaign.run(setup.workers);
  rep.caller_cpu_s = thread_cpu_s() - caller_before;
  const double t2 = now_s();
  if (trace != nullptr) {
    count_allocations(false);
    rep.allocations = allocations() - allocations_before;
    trace->end(serve_span);
  }
  rep.setup_s = t1 - t0;
  rep.serve_s = t2 - t1;
  rep.stage = report.stage;
  summarize(report, rep);
  rep.cpu_s = rusage_cpu_s() - cpu_before;
}

/// fabric_resume: a first coordinator serves the first half of the shards
/// to forked workers and stops (max_shards); a second one compacts and
/// restores that half from the checkpoint and leases the rest to a fresh
/// fleet. Set-up ends, per coordinator, when its first lease leaves.
void run_fabric_rep(const Setup& setup, Trace* trace, std::int64_t parent,
                    Rep& rep) {
  const double cpu_before = rusage_cpu_s();
  const std::string checkpoint = setup.work_dir + "/fabric_resume.ckpt";
  std::remove(checkpoint.c_str());

  for (const bool resume : {false, true}) {
    testbed::CampaignSpec spec = setup.spec;
    spec.checkpoint_path = checkpoint;
    spec.max_shards = resume ? 0 : setup.shards / 2;
    WireCounters wire;
    wire.timed = trace != nullptr;
    wire.trace = trace;
    const double t0 = now_s();
    if (trace != nullptr) {
      wire.parent_span = trace->begin(resume ? "coordinator.resume"
                                             : "coordinator.first",
                                      parent);
    }
    Fleet fleet;
    std::vector<std::unique_ptr<fabric::Transport>> ends =
        fleet.spawn(spec, setup.workers, wire);
    fabric::Coordinator coordinator(spec);
    std::uint64_t allocations_before = 0;
    if (trace != nullptr) {
      count_allocations(true);
      allocations_before = allocations();
    }
    const testbed::CampaignReport report = coordinator.run(std::move(ends));
    const double caller_cpu = thread_cpu_s();
    const double t1 = now_s();
    if (trace != nullptr) {
      count_allocations(false);
      rep.allocations += allocations() - allocations_before;
      trace->end(wire.parent_span);
    }
    rep.peak_rss_mib = std::max(rep.peak_rss_mib, fleet.reap());
    if (!wire.first_grant.has_value()) {
      throw std::runtime_error("fabric coordinator granted no lease");
    }
    rep.caller_cpu_s += caller_cpu - wire.first_grant_cpu_s;
    rep.setup_s += *wire.first_grant - t0;
    rep.serve_s += t1 - *wire.first_grant;
    if (trace != nullptr) {
      trace->add(Span{"setup", t0, *wire.first_grant, wire.parent_span, -1});
    }
    const fabric::CoordinatorStats& stats = coordinator.stats();
    rep.fabric.leases_granted += stats.leases_granted;
    rep.fabric.leases_expired += stats.leases_expired;
    rep.fabric.duplicate_shards += stats.duplicate_shards;
    rep.wire_frames += wire.frames_sent + wire.frames_received;
    rep.wire_bytes += wire.bytes_sent + wire.bytes_received;
    rep.send_s += wire.send_s;
    rep.recv_s += wire.recv_s;
    rep.stage.merge += report.stage.merge;
    if (resume) {
      rep.stage.restore = report.stage.restore;
      summarize(report, rep);
    }
  }
  rep.checkpoint_lines = file_lines(checkpoint);
  rep.cpu_s = rusage_cpu_s() - cpu_before;
}

/// Half the cores run the workload, the fabric's coordinator among them, so
/// a vCPU the hypervisor takes away leaves an idle one for the workload to
/// move to.
std::size_t workers_for(Workload workload, std::size_t cores) {
  const std::size_t busy = std::max<std::size_t>(cores / 2, 1);
  return workload == Workload::fabric_resume
             ? std::max<std::size_t>(busy, 2) - 1
             : busy;
}

/// Threads that run at once in a repetition: the workers, plus the fabric's
/// coordinator.
std::size_t busy_threads(const Setup& setup) {
  return setup.workers +
         (setup.workload == Workload::fabric_resume ? 1 : 0);
}

}  // namespace

const char* name(Workload workload) {
  switch (workload) {
    case Workload::tiny_pool: return "tiny_pool";
    case Workload::deep_fleet: return "deep_fleet";
    case Workload::fabric_resume: return "fabric_resume";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& text) {
  for (const Workload workload : {Workload::tiny_pool, Workload::deep_fleet,
                                  Workload::fabric_resume}) {
    if (text == name(workload)) return workload;
  }
  return std::nullopt;
}

Sizes Sizes::smoke() {
  Sizes sizes;
  sizes.pool_shards = 1000;
  sizes.fleet_replicas = 2;
  sizes.fleet_probes = 30;
  sizes.replay_pool_sample = 32;
  sizes.replay_fleet_sample = 2;
  return sizes;
}

Setup make_setup(Workload workload, std::uint64_t seed, const Sizes& sizes,
                 std::size_t cores, const std::string& work_dir) {
  Setup setup;
  setup.workload = workload;
  setup.work_dir = work_dir;
  switch (workload) {
    case Workload::tiny_pool:
    case Workload::fabric_resume:
      setup.spec = pool_spec(seed, sizes.pool_shards);
      setup.replay_sample = sizes.replay_pool_sample;
      break;
    case Workload::deep_fleet:
      setup.spec = fleet_spec(seed, sizes.fleet_replicas, sizes.fleet_probes);
      setup.replay_sample = sizes.replay_fleet_sample;
      break;
  }
  setup.shards = testbed::Campaign(setup.spec).scenario_count();
  setup.workers = workers_for(workload, cores);
  return setup;
}

Setup counterpart(const Setup& setup, std::size_t cores) {
  Setup other = setup;
  other.workload = setup.workload == Workload::fabric_resume
                       ? Workload::tiny_pool
                       : Workload::fabric_resume;
  other.workers = workers_for(other.workload, cores);
  return other;
}

Rep run_rep(const Setup& setup, Trace* trace, std::int64_t parent) {
  std::int64_t rep_span = -1;
  if (trace != nullptr) rep_span = trace->begin("rep", parent);
  Rep rep;
  rep.traced = trace != nullptr;
  rep.attempted = setup.shards;
  // Hand memory freed by earlier repetitions back to the kernel first, so
  // every repetition's peak starts from the same resident baseline.
  malloc_trim(0);
  rep.host = probe_host_speed(busy_threads(setup));
  reset_peak_rss();
  if (setup.workload == Workload::fabric_resume) {
    run_fabric_rep(setup, trace, rep_span, rep);
  } else {
    run_pool_rep(setup, trace, rep_span, rep);
  }
  rep.peak_rss_mib = std::max(rep.peak_rss_mib, self_peak_rss_mib());
  if (trace != nullptr) trace->end(rep_span);
  return rep;
}

std::string fingerprint(const testbed::CampaignReport& report) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  auto mix_digest = [&](const acute::stats::MergingDigest& digest) {
    const acute::stats::DigestSnapshot snap = digest.snapshot();
    mix(snap.compression);
    mix(snap.count);
    for (const double value : {snap.sum, snap.sum_sq, snap.min, snap.max}) {
      mix(acute::stats::double_bits(value));
    }
    mix(snap.centroids.size());
    for (const auto& [mean, weight] : snap.centroids) {
      mix(acute::stats::double_bits(mean));
      mix(acute::stats::double_bits(weight));
    }
  };
  mix(report.completed_shards());
  mix(report.shard_count());
  mix(report.total_probes());
  mix(report.total_lost());
  mix(report.total_events());
  mix(report.total_frames());
  for (const report::WorkloadDigest& digest : report.workload_digests()) {
    mix(acute::tools::tool_kind_index(digest.tool));
    mix(digest.probes);
    mix(digest.lost);
    mix(digest.passive_sniffer_samples);
    mix(digest.passive_app_samples);
    for (const acute::stats::MergingDigest* part :
         {&digest.reported_rtt_ms, &digest.du_ms, &digest.dk_ms,
          &digest.dv_ms, &digest.dn_ms, &digest.passive_sniffer_rtt_ms,
          &digest.passive_app_rtt_ms}) {
      mix_digest(*part);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

}  // namespace perfbench
