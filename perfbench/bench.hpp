// Shared declarations of the campaign benchmark (README.md in this
// directory defines the workloads, metrics and trace).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/transport.hpp"
#include "testbed/campaign.hpp"

namespace perfbench {

namespace fabric = acute::fabric;
namespace report = acute::report;
namespace testbed = acute::testbed;

enum class Workload { tiny_pool, deep_fleet, fabric_resume };

[[nodiscard]] const char* name(Workload workload);
[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);

/// Workload sizes: `full` is what the recorded runs use; `smoke` shrinks
/// every workload to seconds for the self-test.
struct Sizes {
  std::size_t pool_shards = 10000;    // tiny_pool and fabric_resume
  std::size_t fleet_replicas = 32;    // deep_fleet: 4 scenarios each
  int fleet_probes = 50;              // deep_fleet probes per phone
  std::size_t replay_pool_sample = 512;
  std::size_t replay_fleet_sample = 8;

  [[nodiscard]] static Sizes smoke();
};

/// Everything one benchmark invocation needs to build and run a workload.
/// The program under test only ever sees `spec`.
struct Setup {
  Workload workload = Workload::tiny_pool;
  testbed::CampaignSpec spec;
  std::size_t shards = 0;
  /// In-process pool threads, or forked fabric worker processes.
  std::size_t workers = 1;
  /// Directory for checkpoint files and the trace output.
  std::string work_dir;
  std::size_t replay_sample = 0;
};

[[nodiscard]] Setup make_setup(Workload workload, std::uint64_t seed,
                               const Sizes& sizes, std::size_t cores,
                               const std::string& work_dir);

/// The same campaign as `setup` but served by the other path (the pool for
/// fabric_resume, the fabric for tiny_pool), for the cross-path gate.
[[nodiscard]] Setup counterpart(const Setup& setup, std::size_t cores);

// ------------------------------------------------------------------ trace

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Seconds on the benchmark's monotonic clock.
[[nodiscard]] double now_s();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();

/// One traced interval. `parent` indexes the enclosing span (-1 = root);
/// `shard` is the scenario index the span worked on (-1 = none).
struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  std::int64_t parent = -1;
  std::int64_t shard = -1;
};

/// In-memory span store, written out once the benchmark ends. Thread-safe:
/// pool workers record their shard spans concurrently.
class Trace {
 public:
  /// Opens a span now; close it with end().
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::int64_t shard = -1);
  void end(std::int64_t id);
  /// Records a finished span.
  std::int64_t add(const Span& span);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Wire counters of the fabric transport decorator. All coordinator ends of
/// a run share one; the coordinator is single-threaded, so no lock.
struct WireCounters {
  std::optional<double> first_grant;  ///< when the first lease left
  double first_grant_cpu_s = 0;       ///< coordinator thread CPU by then
  bool timed = false;                 ///< count and time (traced reps)
  std::uint64_t frames_sent = 0, frames_received = 0;
  std::uint64_t bytes_sent = 0, bytes_received = 0;
  double send_s = 0, recv_s = 0;
  /// Where the heartbeat -> shard_done interval of each shard, as the
  /// coordinator sees it, is recorded as a "shard" span (traced reps).
  Trace* trace = nullptr;
  std::int64_t parent_span = -1;
};

/// A fabric::Transport decorator around one coordinator end: notes when the
/// first lease_grant leaves (the end of set-up) and, when `timed`, counts
/// and times every frame. fd() passes through, so the coordinator's poll
/// loop sees the real socket.
class WireTap final : public fabric::Transport {
 public:
  WireTap(std::unique_ptr<fabric::Transport> inner, WireCounters& counters);

  void send_all(const void* data, std::size_t size) override;
  std::size_t recv_some(void* data, std::size_t size) override;
  [[nodiscard]] int fd() const override { return inner_->fd(); }

 private:
  void received(const unsigned char* bytes, std::size_t size, double at);

  std::unique_ptr<fabric::Transport> inner_;
  WireCounters& counters_;
  // Frame parser over the received byte stream.
  unsigned char header_[4] = {};
  std::size_t header_have_ = 0;
  std::size_t body_left_ = 0;
  std::size_t body_seen_ = 0;
  // The first body bytes: frame type, then (shard_done) lease id and the
  // record's "ckpt2 <index>" prefix.
  unsigned char prefix_[32] = {};
  std::optional<double> heartbeat_at_;
};

/// Per-shard span recorder plugged in through CampaignSpec::sinks: a shard's
/// span runs from the factory call to shard_finished.
/// `parent` is read at each shard start (the serve span opens after the
/// campaign is built) and must outlive the campaign.
[[nodiscard]] report::SinkFactory shard_span_sinks(
    Trace& trace, const std::int64_t& parent);

// ------------------------------------------------------------- host speed

/// The host's speed, read just before a repetition from a fixed kernel that
/// the benchmark owns (host_speed.cpp) and the library under test cannot
/// change.
struct HostSpeed {
  double cpu_s = 0;   ///< median thread CPU time of the kernel
  double wall_s = 0;  ///< wall time of all threads together
};

/// Runs the kernel once on each of `threads` threads at once.
[[nodiscard]] HostSpeed probe_host_speed(std::size_t threads);

/// The kernel's thread CPU time on the reference host: the 4-vCPU
/// development VM, two threads at once, at its usual speed.
inline constexpr double kReferenceProbeS = 0.0245;

/// Scales a repetition's time to the reference host: `seconds` times the
/// reference probe time over the probe time measured next to it.
[[nodiscard]] inline double at_reference_speed(double seconds,
                                               const HostSpeed& host) {
  return seconds * kReferenceProbeS / host.cpu_s;
}

// ------------------------------------------------------------ allocations

/// The counting global operator new (alloc_count.cpp) counts only while
/// enabled, so untraced reps pay nothing but a flag test.
void count_allocations(bool enabled);
[[nodiscard]] std::uint64_t allocations();

/// Leaves the calling thread's allocations uncounted while alive, so the
/// benchmark's own tracing does not show up in testbed.allocs_per_shard.
class UncountedScope {
 public:
  UncountedScope();
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;

 private:
  bool was_paused_;
};

// -------------------------------------------------------------- workloads

/// One measured repetition of a workload.
struct Rep {
  bool traced = false;
  double setup_s = 0;
  double serve_s = 0;
  double cpu_s = 0;         ///< user+sys, this process and reaped children
  double peak_rss_mib = 0;  ///< largest peak resident set of any process
  double caller_cpu_s = 0;  ///< the thread in Campaign/Coordinator::run
  HostSpeed host;           ///< the host-speed probe just before the rep
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::uint64_t events = 0, frames = 0, probes = 0;
  std::uint64_t passive_sniffer_samples = 0, passive_app_samples = 0;
  testbed::StageSeconds stage;
  /// Leases granted/expired and duplicates of both coordinators, summed.
  fabric::CoordinatorStats fabric;
  std::uint64_t allocations = 0;    ///< this process, traced reps only
  std::size_t checkpoint_lines = 0;
  std::string fingerprint;
  /// Median reported RTT (ms) per tool kind; NaN for kinds that did not run.
  std::vector<double> median_rtt_ms;
  // traced fabric reps
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  double send_s = 0, recv_s = 0;
};

/// Runs one repetition. With `trace` set, the repetition records spans
/// under `parent`, counts allocations and taps the fabric wire.
[[nodiscard]] Rep run_rep(const Setup& setup, Trace* trace,
                          std::int64_t parent);

/// Bit-exact fingerprint of a merged report: FNV-1a over the exact totals
/// and every workload digest's DigestSnapshot.
[[nodiscard]] std::string fingerprint(const testbed::CampaignReport& report);

// ----------------------------------------------------------------- replay

/// Per-layer numbers of the single-threaded layer replay.
struct ReplayResult {
  double materialize_us = 0, shard_hash_us = 0, spec_hash_s = 0;
  double render_us = 0, parse_us = 0, append_us = 0, fold_us = 0;
  double send_us = 0, recv_us = 0;
  double record_bytes = 0, wire_bytes = 0, frames = 0;
  double compact_s = 0;
  double copies_per_probe = 0;
  /// The one-worker resume campaign over the workload's first shards.
  testbed::StageSeconds stage_per_kshard;
  double restore_s = 0;
  double events_per_simulate_s = 0;
};

[[nodiscard]] ReplayResult replay(const Setup& setup, Trace& trace);

}  // namespace perfbench
