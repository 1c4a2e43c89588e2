// acute_fabric — distributed campaign driver (docs/fabric.md).
//
// Three modes over one shared demo campaign (the scaling sweep: 50 emulated
// RTTs × reorder on/off × an N-scaled loss axis, lazy grid):
//
//   acute_fabric local      [spec flags] --digest-out ref.txt
//     Single-process, single-thread Campaign::run — the bit-identity
//     reference every fabric run must reproduce byte for byte.
//
//   acute_fabric coordinate [spec flags] [--spawn N] [--socket PATH] ...
//     Runs the coordinator. --spawn forks N local worker processes over
//     socketpairs (their pids print as "worker-pid <pid>" so a harness can
//     kill one mid-run); --socket additionally accepts external workers.
//
//   acute_fabric work --socket PATH [spec flags]
//     Runs one worker process against a listening coordinator. The spec
//     flags must match the coordinator's — the handshake rejects a
//     mismatch loudly.
//
// The digest dump (--digest-out) serializes every merged workload digest
// with IEEE-754 bit patterns, so two runs merged identically produce
// byte-identical files — `diff` is the verifier, no tolerance windows.
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign.hpp"

namespace {

using acute::fabric::Coordinator;
using acute::fabric::CoordinatorConfig;
using acute::fabric::Transport;
using acute::fabric::UnixListener;
using acute::fabric::Worker;
using acute::testbed::Campaign;
using acute::testbed::CampaignReport;
using acute::testbed::CampaignSpec;
using acute::testbed::ScenarioGrid;

struct Options {
  std::string mode;
  std::size_t shards = 1000;
  int probes = 1;
  std::uint64_t seed = 2016;
  std::string socket_path;
  std::string checkpoint;
  std::string digest_out;
  std::size_t spawn = 0;
  std::size_t batch = 16;
  std::uint64_t lease_timeout_ms = 10'000;
  std::size_t max_shards = 0;
  std::size_t workers = 1;  // local-mode thread count
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <local|coordinate|work> [options]\n"
      "  spec (must match across coordinator and workers):\n"
      "    --shards N            demo sweep size, rounded up to 100 "
      "(default 1000)\n"
      "    --probes N            probes per phone (default 1)\n"
      "    --seed S              campaign seed (default 2016)\n"
      "  coordinate:\n"
      "    --spawn N             fork N local worker processes\n"
      "    --socket PATH         also accept workers on a unix socket\n"
      "    --checkpoint PATH     coordinator checkpoint (resume on rerun)\n"
      "    --batch N             scenario indices per lease (default 16)\n"
      "    --lease-timeout-ms N  lease deadline; workers send at least every\n"
      "                          N/4 ms (default 10000)\n"
      "    --max-shards N        cap pending shards this run (default all)\n"
      "  work:\n"
      "    --socket PATH         coordinator socket to join\n"
      "  local:\n"
      "    --workers N           thread count (default 1)\n"
      "    --checkpoint PATH     campaign checkpoint\n"
      "  output:\n"
      "    --digest-out PATH     write the merged-digest dump here\n",
      argv0);
  return 1;
}

/// Parses all of `text` as a non-negative decimal that fits `T`. Rejects an
/// empty value, a sign, a unit suffix ("10s") and a word ("two"), each of
/// which strtoull reads as some other number.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end ||
      value > std::uint64_t{std::numeric_limits<T>::max()}) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// The shared demo campaign: the frontier scaling sweep, sized by --shards
/// (grid size = 100 × ceil(shards / 100); 50 RTT steps × 2 reorder states
/// × loss steps). Identical flags produce identical specs in every mode —
/// which is exactly what the fabric handshake verifies.
CampaignSpec demo_spec(const Options& options) {
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(acute::sim::Duration::millis(2 + i));
  }
  grid.reorder = {false, true};
  const std::size_t loss_steps = (options.shards + 99) / 100;
  grid.loss_rates.clear();
  for (std::size_t i = 0; i < loss_steps; ++i) {
    grid.loss_rates.push_back(double(i) * (0.3 / double(loss_steps)));
  }
  CampaignSpec spec;
  spec.seed = options.seed;
  spec.grid = grid;
  spec.probes_per_phone = options.probes;
  spec.probe_interval = acute::sim::Duration::millis(50);
  spec.probe_timeout = acute::sim::Duration::millis(400);
  spec.settle = acute::sim::Duration::millis(50);
  spec.checkpoint_path = options.checkpoint;
  spec.max_shards = options.max_shards;
  return spec;
}

void emit_report(const Options& options, const CampaignReport& report) {
  if (!options.digest_out.empty()) {
    std::ofstream out(options.digest_out, std::ios::trunc);
    acute::sim::expects(out.is_open(),
                        "acute_fabric: cannot open --digest-out file");
    acute::testbed::write_report_digests(out, report);
    out.flush();
    acute::sim::expects(out.good(), "acute_fabric: short digest-out write");
  }
  std::fprintf(stdout, "completed %zu/%zu shards, %zu probes (%zu lost)\n",
               report.completed_shards(), report.shard_count(),
               report.total_probes(), report.total_lost());
}

int run_local(const Options& options) {
  Campaign campaign(demo_spec(options));
  const CampaignReport report = campaign.run(options.workers);
  emit_report(options, report);
  return 0;
}

int run_coordinate(const Options& options) {
  const CampaignSpec spec = demo_spec(options);
  CoordinatorConfig config;
  config.lease.batch = options.batch;
  config.lease.lease_timeout_ms = options.lease_timeout_ms;
  config.log = &std::cerr;

  // Fork the --spawn workers over socketpairs BEFORE any listener/worker
  // I/O: the parent is single-threaded here, so fork() is safe, and each
  // child closes every coordinator-side end it inherited so a killed
  // sibling's EOF reaches the coordinator and nobody else.
  std::vector<std::unique_ptr<Transport>> coordinator_ends;
  std::vector<pid_t> children;
  for (std::size_t i = 0; i < options.spawn; ++i) {
    auto [coord_end, worker_end] = acute::fabric::transport_pair();
    const pid_t pid = ::fork();
    acute::sim::expects(pid >= 0, "acute_fabric: fork failed");
    if (pid == 0) {
      coordinator_ends.clear();  // closes inherited coordinator-side fds
      coord_end.reset();
      int status = 0;
      try {
        Worker worker(demo_spec(options));
        worker.run(*worker_end);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "acute_fabric worker (pid %d): %s\n",
                     static_cast<int>(::getpid()), error.what());
        status = 2;
      }
      worker_end.reset();
      std::_Exit(status);  // no stdio flush: the parent owns those buffers
    }
    worker_end.reset();  // parent: close the child's end
    coordinator_ends.push_back(std::move(coord_end));
    children.push_back(pid);
    // The kill-one-worker smoke harness parses these lines.
    std::fprintf(stdout, "worker-pid %d\n", static_cast<int>(pid));
    std::fflush(stdout);
  }

  std::unique_ptr<UnixListener> listener;
  if (!options.socket_path.empty()) {
    listener = std::make_unique<UnixListener>(options.socket_path);
  }
  acute::sim::expects(
      !coordinator_ends.empty() || listener != nullptr,
      "acute_fabric coordinate: need --spawn and/or --socket workers");

  Coordinator coordinator(spec, config);
  const CampaignReport report =
      coordinator.run(std::move(coordinator_ends), listener.get());

  // Reap the spawned fleet (shutdown frames already sent; a worker the
  // harness killed reaps just the same).
  for (const pid_t pid : children) {
    int status = 0;
    (void)::waitpid(pid, &status, 0);
  }
  const acute::fabric::CoordinatorStats& stats = coordinator.stats();
  std::fprintf(stdout,
               "fabric: %zu workers joined, %zu died, %zu leases, "
               "%zu expired, %zu duplicates\n",
               stats.workers_joined, stats.workers_died, stats.leases_granted,
               stats.leases_expired, stats.duplicate_shards);
  emit_report(options, report);
  return 0;
}

int run_work(const Options& options) {
  acute::sim::expects(!options.socket_path.empty(),
                      "acute_fabric work: --socket is required");
  std::unique_ptr<Transport> transport =
      acute::fabric::unix_connect(options.socket_path);
  Worker worker(demo_spec(options));
  const std::size_t shards = worker.run(*transport);
  std::fprintf(stdout, "worker done: %zu shards\n", shards);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  Options options;
  options.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    auto number = [&](auto& out) {
      const char* text = value();
      if (!parse_number(text, out)) {
        std::fprintf(stderr, "%s: %s needs a non-negative integer, not '%s'\n",
                     argv[0], flag.c_str(), text);
        std::exit(usage(argv[0]));
      }
    };
    if (flag == "--shards") {
      number(options.shards);
    } else if (flag == "--probes") {
      number(options.probes);
    } else if (flag == "--seed") {
      number(options.seed);
    } else if (flag == "--socket") {
      options.socket_path = value();
    } else if (flag == "--checkpoint") {
      options.checkpoint = value();
    } else if (flag == "--digest-out") {
      options.digest_out = value();
    } else if (flag == "--spawn") {
      number(options.spawn);
    } else if (flag == "--batch") {
      number(options.batch);
    } else if (flag == "--lease-timeout-ms") {
      number(options.lease_timeout_ms);
    } else if (flag == "--max-shards") {
      number(options.max_shards);
    } else if (flag == "--workers") {
      number(options.workers);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], flag.c_str());
      return usage(argv[0]);
    }
  }
  try {
    if (options.mode == "local") return run_local(options);
    if (options.mode == "coordinate") return run_coordinate(options);
    if (options.mode == "work") return run_work(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 2;
  }
  return usage(argv[0]);
}
