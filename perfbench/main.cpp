// perfbench — the campaign benchmark (README.md in this directory).
//
//   perfbench --workload tiny_pool|deep_fleet|fabric_resume --seed N
//             --seconds S --trace 0|1 [--commit ID] [--out-dir DIR] [--smoke]
//
// Runs the workload repeatedly for S seconds after a warm-up and prints,
// as the last line of stdout, one JSON object: the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1), whether the
// correctness gate held, and how many shards were attempted and failed.
// Exits 1 on a gate miss, 2 on an error and 3 for a build whose numbers
// must not be recorded (not Release, or instrumented by a sanitizer).
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

using acute::tools::ToolKind;
using acute::tools::tool_kind_index;

struct Options {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_build/perfbench-out";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// ------------------------------------------------------------ host stamp

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "g++ " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// Non-empty when this build's timings must not be recorded.
std::string unrecordable_build() {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "built with a sanitizer";
  }
  return "";
}

std::size_t effective_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value
                                                                      : 0.0);
  return buffer;
}

std::string stamp(const Options& options, const Setup& setup,
                  std::size_t cores) {
  const std::string refused = unrecordable_build();
  return std::string("{") +
         "\"workload\": " + json_string(name(setup.workload)) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"seconds\": " + number(options.seconds) +
         ", \"trace\": " + (options.trace ? "1" : "0") +
         ", \"size\": " + json_string(options.smoke ? "smoke" : "full") +
         ", \"shards\": " + std::to_string(setup.shards) +
         ", \"workers\": " + std::to_string(setup.workers) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"effective_cores\": " + std::to_string(cores) +
         ", \"compiler\": " + json_string(kCompiler) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS) +
         ", \"commit\": " + json_string(options.commit) +
         ", \"recordable\": " + (refused.empty() ? "true" : "false") + "}";
}

// --------------------------------------------------------------- metrics

template <typename Fn>
double median_of(const std::vector<Rep>& reps, Fn&& fn) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const Rep& rep : reps) values.push_back(fn(rep));
  return median(std::move(values));
}

/// Every time below is a repetition's time at the reference host speed (see
/// at_reference_speed), so drift in the shared host's speed between runs
/// does not read as a change in the program.
std::vector<Metric> end_to_end(const Setup& setup,
                               const std::vector<Rep>& reps) {
  const double shards = double(setup.shards);
  const auto serve = [](const Rep& r) {
    return at_reference_speed(r.serve_s, r.host);
  };
  return {
      {"scenarios_per_s", "shards/s",
       median_of(reps, [&](const Rep& r) { return shards / serve(r); })},
      {"events_per_s", "events/s",
       median_of(reps,
                 [&](const Rep& r) { return double(r.events) / serve(r); })},
      {"cpu_s_per_kshard", "s", median_of(reps, [&](const Rep& r) {
         return at_reference_speed(r.cpu_s, r.host) * 1e3 / shards;
       })},
      // The smallest repetition peak: a repetition's peak also grows with
      // completion skew (a descheduled worker makes the merge frontier
      // park shards), which on a shared host is scheduling noise.
      {"peak_rss_mb", "MiB",
       std::min_element(reps.begin(), reps.end(),
                        [](const Rep& a, const Rep& b) {
                          return a.peak_rss_mib < b.peak_rss_mib;
                        })
           ->peak_rss_mib},
      {"setup_s", "s", median_of(reps, [](const Rep& r) {
         return at_reference_speed(r.setup_s, r.host);
       })},
  };
}

/// The aggregate "cpu" counters of /proc/stat: time the hypervisor stole
/// from this VM and all vCPU time.
struct CpuJiffies {
  double steal = 0;
  double total = 0;
};

CpuJiffies read_cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuJiffies jiffies;
  double value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    jiffies.total += value;
    if (field == 7) jiffies.steal = value;
  }
  return jiffies;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * double(values.size() - 1))];
}

/// Per-layer metrics. A layer that runs live in this workload's topology is
/// read from the traced repetitions; one that does not (the stage split on
/// the fabric, whose shards run in other processes; restore and the wire on
/// the pool) comes from the layer replay over this workload's shards.
std::vector<Metric> per_layer(const Setup& setup,
                              const std::vector<Rep>& traced,
                              const std::vector<Rep>& untraced,
                              const std::vector<Span>& spans,
                              const ReplayResult& replayed) {
  const bool fabric = setup.workload == Workload::fabric_resume;
  const double shards = double(setup.shards);
  auto per_shard = [&](auto field) {
    return median_of(traced,
                     [&](const Rep& r) { return double(field(r)) / shards; });
  };
  auto per_kshard = [&](double testbed::StageSeconds::*stage) {
    return median_of(traced,
                     [&](const Rep& r) { return r.stage.*stage * 1e3 / shards; });
  };
  std::vector<double> shard_ms;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, "shard") == 0) {
      shard_ms.push_back((span.end - span.start) * 1e3);
    }
  }
  const double simulate_rate =
      fabric ? replayed.events_per_simulate_s
             : median_of(traced, [](const Rep& r) {
                 return double(r.events) / r.stage.simulate;
               });
  const double traced_serve =
      median_of(traced, [](const Rep& r) { return r.serve_s; });
  const double untraced_serve =
      median_of(untraced, [](const Rep& r) { return r.serve_s; });
  return {
      {"testbed.stage.build_s", "s/kshard",
       fabric ? replayed.stage_per_kshard.build
              : per_kshard(&testbed::StageSeconds::build)},
      {"testbed.stage.simulate_s", "s/kshard",
       fabric ? replayed.stage_per_kshard.simulate
              : per_kshard(&testbed::StageSeconds::simulate)},
      {"testbed.stage.sink_s", "s/kshard",
       fabric ? replayed.stage_per_kshard.sink
              : per_kshard(&testbed::StageSeconds::sink)},
      {"testbed.stage.merge_s", "s/kshard",
       per_kshard(&testbed::StageSeconds::merge)},
      {"testbed.stage.restore_s", "s",
       fabric ? median_of(traced, [](const Rep& r) { return r.stage.restore; })
              : replayed.restore_s},
      {"testbed.merge_wall_share", "ratio",
       median_of(traced,
                 [](const Rep& r) { return r.stage.merge / r.serve_s; })},
      {"testbed.shard_ms.p50", "ms", percentile(shard_ms, 0.50)},
      {"testbed.shard_ms.p99", "ms", percentile(shard_ms, 0.99)},
      {"testbed.allocs_per_shard", "count",
       per_shard([](const Rep& r) { return r.allocations; })},
      {"testbed.materialize_us", "us", replayed.materialize_us},
      {"testbed.shard_hash_us", "us", replayed.shard_hash_us},
      {"testbed.spec_hash_s", "s", replayed.spec_hash_s},
      {"sim.events_per_shard", "count",
       per_shard([](const Rep& r) { return r.events; })},
      {"sim.events_per_simulate_s", "events/s", simulate_rate},
      {"net.copies_per_probe", "count", replayed.copies_per_probe},
      {"wifi.frames_per_shard", "count",
       per_shard([](const Rep& r) { return r.frames; })},
      {"tools.probes_per_shard", "count",
       per_shard([](const Rep& r) { return r.probes; })},
      {"passive.samples_per_shard", "count", per_shard([](const Rep& r) {
         return r.passive_sniffer_samples + r.passive_app_samples;
       })},
      {"stats.fold_us_per_shard", "us", replayed.fold_us},
      {"report.ckpt_render_us", "us", replayed.render_us},
      {"report.ckpt_parse_us", "us", replayed.parse_us},
      {"report.ckpt_append_us", "us", replayed.append_us},
      {"report.ckpt_bytes_per_shard", "bytes", replayed.record_bytes},
      {"report.compact_s", "s", replayed.compact_s},
      {"fabric.frames_per_shard", "count",
       fabric ? per_shard([](const Rep& r) { return r.wire_frames; })
              : replayed.frames},
      {"fabric.wire_bytes_per_shard", "bytes",
       fabric ? per_shard([](const Rep& r) { return r.wire_bytes; })
              : replayed.wire_bytes},
      {"fabric.send_us", "us",
       fabric ? 1e6 * per_shard([](const Rep& r) { return r.send_s; })
              : replayed.send_us},
      {"fabric.recv_us", "us",
       fabric ? 1e6 * per_shard([](const Rep& r) { return r.recv_s; })
              : replayed.recv_us},
      {"fabric.leases_granted", "count",
       median_of(traced,
                 [](const Rep& r) { return double(r.fabric.leases_granted); })},
      {"fabric.duplicate_shards", "count", median_of(traced, [](const Rep& r) {
         return double(r.fabric.duplicate_shards);
       })},
      {"fabric.leases_expired", "count",
       median_of(traced,
                 [](const Rep& r) { return double(r.fabric.leases_expired); })},
      {"fabric.coordinator_cpu_share", "ratio",
       median_of(traced,
                 [](const Rep& r) { return r.caller_cpu_s / r.serve_s; })},
      {"trace.overhead", "ratio", traced_serve / untraced_serve - 1.0},
      {"host.probe_ms", "ms", 1e3 * median_of(untraced, [](const Rep& r) {
                                return r.host.cpu_s;
                              })},
  };
}

// ------------------------------------------------------------------ gate

/// The correctness gate over every repetition run. Returns the misses
/// (each printed); unfinished shards are counted by the caller, which also
/// prints them.
std::size_t gate(const Setup& setup, const std::vector<Rep>& reps,
                 const Rep* other_path) {
  std::size_t misses = 0;
  auto miss = [&misses](const std::string& what) {
    ++misses;
    std::printf("gate miss: %s\n", what.c_str());
  };
  const std::string& reference = reps.front().fingerprint;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    const std::string at = " (repetition " + std::to_string(i) + ")";
    if (rep.fingerprint != reference) {
      miss("merged-digest fingerprint " + rep.fingerprint + " differs from " +
           reference + at);
    }
    if (setup.workload == Workload::fabric_resume &&
        rep.checkpoint_lines != setup.shards) {
      miss("compacted checkpoint has " + std::to_string(rep.checkpoint_lines) +
           " lines for " + std::to_string(setup.shards) + " shards" + at);
    }
    if (setup.workload == Workload::deep_fleet) {
      const auto rtt = [&rep](ToolKind kind) {
        return rep.median_rtt_ms[tool_kind_index(kind)];
      };
      const double acutemon = rtt(ToolKind::acutemon);
      const double ping = rtt(ToolKind::icmp_ping);
      const double httping = rtt(ToolKind::httping);
      const double java = rtt(ToolKind::java_ping);
      // Fig. 8: AcuteMon reports the lowest median RTT of the four tools
      // (a NaN, a tool that never answered, fails too). The order among
      // the other three is within a millisecond on this contended fleet
      // and flips between seeds, so it is not checked.
      if (!(acutemon < ping && acutemon < httping && acutemon < java)) {
        char text[160];
        std::snprintf(text, sizeof text,
                      "median RTT AcuteMon %.2f ms is not below ping %.2f, "
                      "httping %.2f and Java ping %.2f ms",
                      acutemon, ping, httping, java);
        miss(text + at);
      }
      if (rep.passive_sniffer_samples == 0 || rep.passive_app_samples == 0) {
        miss("a passive vantage point produced no samples" + at);
      }
    }
  }
  if (other_path != nullptr && other_path->fingerprint != reference) {
    miss("tiny_pool and fabric_resume fingerprints differ: " +
         other_path->fingerprint + " vs " + reference);
  }
  return misses;
}

// ------------------------------------------------------------ trace files

struct LayerTime {
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// Self time per span name: a span's duration minus the part of it its
/// children cover (the union of their intervals — pool shards overlap).
std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = spans[i].start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans[i].end);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    LayerTime& layer = layers[spans[i].name];
    layer.count += 1;
    layer.total_s += spans[i].end - spans[i].start;
    layer.self_s += spans[i].end - spans[i].start - covered;
  }
  return layers;
}

void write_trace(const std::string& base, const std::string& stamp_json,
                 const std::vector<Span>& spans,
                 const std::map<std::string, LayerTime>& layers,
                 const std::vector<Metric>& metrics) {
  {
    std::ofstream out(base + ".spans.jsonl", std::ios::trunc);
    for (const Span& span : spans) {
      out << "{\"name\": " << json_string(span.name)
          << ", \"start\": " << number(span.start)
          << ", \"end\": " << number(span.end)
          << ", \"parent\": " << span.parent << ", \"shard\": " << span.shard
          << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write " + base + ".spans.jsonl");
  }
  std::ofstream out(base + ".layers.json", std::ios::trunc);
  out << "{\"stamp\": " << stamp_json << ",\n \"self_time\": {";
  bool first = true;
  for (const auto& [name, layer] : layers) {
    out << (first ? "\n  " : ",\n  ") << json_string(name)
        << ": {\"count\": " << layer.count
        << ", \"total_s\": " << number(layer.total_s)
        << ", \"self_s\": " << number(layer.self_s) << "}";
    first = false;
  }
  out << "},\n \"metrics\": {";
  first = true;
  for (const Metric& metric : metrics) {
    out << (first ? "\n  " : ",\n  ") << json_string(metric.name)
        << ": {\"value\": " << number(metric.value)
        << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write " + base + ".layers.json");
}

// -------------------------------------------------------------------- run

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tiny_pool|deep_fleet|fabric_resume "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--out-dir DIR] [--smoke]\n",
               argv0);
  return 2;
}

int run(const Options& options) {
  const std::size_t cores = effective_cores();
  std::filesystem::create_directories(options.out_dir);
  const Setup setup =
      make_setup(*options.workload, options.seed,
                 options.smoke ? Sizes::smoke() : Sizes{}, cores,
                 options.out_dir);
  const std::string stamp_json = stamp(options, setup, cores);
  std::printf("stamp %s\n", stamp_json.c_str());
  if (const std::string why = unrecordable_build(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 3;
  }

  // Untimed repetitions first, for at least two repetitions and three
  // seconds: caches, allocator arenas and page tables fill, and an idle
  // VM's vCPUs reach full speed under sustained load (on the development
  // VM a four-thread loop ran up to 4x slower for its first second).
  std::vector<Rep> all;
  const double warm_until = now_s() + (options.smoke ? 0.0 : 3.0);
  while (all.size() < 2 || now_s() < warm_until) {
    all.push_back(run_rep(setup, nullptr, -1));
  }
  const std::size_t warm_ups = all.size();
  Trace trace;
  std::vector<Rep> untraced, traced;
  const CpuJiffies jiffies_before = read_cpu_jiffies();
  const double deadline = now_s() + options.seconds;
  for (std::size_t i = 0; now_s() < deadline || untraced.size() < 3 ||
                          (options.trace && traced.size() < 3);
       ++i) {
    // The traced run alternates traced and untraced repetitions, so the
    // overhead compares repetitions that saw the same machine.
    const bool traced_rep = options.trace && i % 2 == 1;
    Rep rep = run_rep(setup, traced_rep ? &trace : nullptr, -1);
    (traced_rep ? traced : untraced).push_back(rep);
    all.push_back(std::move(rep));
  }
  const CpuJiffies jiffies_after = read_cpu_jiffies();
  const double steal_share =
      (jiffies_after.steal - jiffies_before.steal) /
      std::max(1.0, jiffies_after.total - jiffies_before.total);
  std::vector<Metric> metrics;
  if (!options.trace) metrics = end_to_end(setup, untraced);

  std::optional<Rep> other_path;
  if (setup.workload != Workload::deep_fleet) {
    other_path = run_rep(counterpart(setup, cores), nullptr, -1);
    all.push_back(*other_path);
  }
  if (options.trace) {
    const ReplayResult replayed = replay(setup, trace);
    const std::vector<Span> spans = trace.spans();
    metrics = per_layer(setup, traced, untraced, spans, replayed);
    const auto layers = self_times(spans);
    const std::string base = options.out_dir + "/" + name(setup.workload) +
                             "-seed" + std::to_string(options.seed);
    write_trace(base, stamp_json, spans, layers, metrics);
    std::printf("self time by span (%zu spans, %s.spans.jsonl):\n",
                spans.size(), base.c_str());
    for (const auto& [layer_name, layer] : layers) {
      std::printf("  %-26s %8zu spans  total %10.6f s  self %10.6f s\n",
                  layer_name.c_str(), layer.count, layer.total_s,
                  layer.self_s);
    }
  }

  std::size_t attempted = 0, unfinished = 0;
  for (const Rep& rep : all) {
    attempted += rep.attempted;
    unfinished += rep.attempted - rep.completed;
  }
  if (unfinished > 0) {
    std::printf("gate miss: %zu of %zu shards did not complete\n", unfinished,
                attempted);
  }
  std::vector<Rep> gated(all.begin(),
                         other_path.has_value() ? all.end() - 1 : all.end());
  const std::size_t misses =
      gate(setup, gated, other_path.has_value() ? &*other_path : nullptr);
  const std::size_t failed = unfinished + misses;
  std::printf("fingerprint %s\n", all.front().fingerprint.c_str());
  std::printf("repetitions: %zu warm-up, %zu untraced, %zu traced\n",
              warm_ups, untraced.size(), traced.size());
  std::printf("host steal while measuring: %.1f %% of vCPU time\n",
              100.0 * steal_share);
  for (const Rep& rep : all) {
    std::printf("  %s set-up %.4f s, serve %.4f s, cpu %.3f s, peak rss "
                "%.1f MiB, host probe cpu %.5f s wall %.5f s\n",
                rep.traced ? "traced  " : "untraced", rep.setup_s, rep.serve_s,
                rep.cpu_s, rep.peak_rss_mib, rep.host.cpu_s, rep.host.wall_s);
  }
  for (const Metric& metric : metrics) {
    std::printf("%-30s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%-30s %.6g %s\n", "failed_share",
              double(failed) / double(attempted), "ratio");

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return perfbench::usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = perfbench::parse_workload(value);
      if (!options.workload) return perfbench::usage(argv[0]);
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return perfbench::usage(argv[0]);
    }
  }
  if (!options.workload) return perfbench::usage(argv[0]);
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
