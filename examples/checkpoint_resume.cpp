// Reproduces: no single figure — this is the operational side of the §1
// crowdsourcing setting: a fleet sweep that survives being killed. The
// campaign streams per-probe records to JSONL (what a MopEye-style backend
// would ingest) and checkpoints every completed shard; rerunning the same
// command resumes from the last completed shard with bit-identical merged
// digests.
//
// Usage: ./build/example_checkpoint_resume --checkpoint PATH
//          [--jsonl PATH] [--kill-after K] [--workers N] [--verify]
//   --kill-after K  execute at most K pending shards, then exit (simulates
//                   a mid-sweep kill; rerun without it to resume)
//   --verify        after the (resumed) run, re-run the whole campaign
//                   uninterrupted in memory and exit non-zero unless the
//                   merged workload digests are bit-identical
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "report/jsonl_sink.hpp"
#include "testbed/campaign.hpp"
#include "tools/factory.hpp"

using namespace acute;
using sim::Duration;

namespace {

/// The demo sweep: 8 shards (2 profiles x 2 loss rates x 2 workloads).
testbed::CampaignSpec demo_campaign() {
  testbed::ScenarioGrid grid;
  grid.profiles = {phone::PhoneProfile::nexus5(),
                   phone::PhoneProfile::nexus4()};
  grid.emulated_rtts = {Duration::millis(15)};
  grid.loss_rates = {0.0, 0.15};
  grid.workloads = {testbed::WorkloadSpec{tools::ToolKind::icmp_ping},
                    testbed::WorkloadSpec{tools::ToolKind::httping}};
  testbed::CampaignSpec spec;
  spec.seed = 2016;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 8;
  spec.probe_interval = Duration::millis(150);
  return spec;
}

/// The bit-exact merged-digest dump: equal strings, equal merges.
std::string digest_dump(const testbed::CampaignReport& report) {
  std::ostringstream out;
  testbed::write_report_digests(out, report);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string checkpoint_path;
  std::string jsonl_path;
  std::size_t kill_after = 0;
  std::size_t workers = 2;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jsonl") == 0 && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (std::strcmp(argv[i], "--kill-after") == 0 && i + 1 < argc) {
      kill_after = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --checkpoint PATH [--jsonl PATH] "
                   "[--kill-after K] [--workers N] [--verify]\n",
                   argv[0]);
      return 1;
    }
  }
  if (checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint is required\n");
    return 1;
  }
  if (workers == 0) workers = 1;

  testbed::CampaignSpec spec = demo_campaign();
  spec.checkpoint_path = checkpoint_path;
  spec.max_shards = kill_after;
  std::shared_ptr<report::JsonlWriter> jsonl;
  if (!jsonl_path.empty()) {
    // Resuming (the checkpoint already has shards): append, so the killed
    // run's exported records survive and the file ends up covering the
    // whole sweep. A fresh sweep truncates.
    const bool resuming =
        !report::load_checkpoint(checkpoint_path).empty();
    jsonl = std::make_shared<report::JsonlWriter>(jsonl_path, resuming);
    spec.sinks = report::jsonl_sink_factory(jsonl);
  }

  std::printf("campaign: %zu scenarios, checkpoint %s%s\n",
              spec.scenarios.size(), checkpoint_path.c_str(),
              kill_after > 0 ? " (killing mid-sweep)" : "");
  const testbed::CampaignReport report =
      testbed::Campaign(spec).run(workers);
  std::printf("completed %zu/%zu shards (%zu probes, %zu lost)\n",
              report.completed_shards(), report.shard_count(),
              report.total_probes(), report.total_lost());

  if (report.completed_shards() < report.shard_count()) {
    std::printf("sweep interrupted — rerun the same command without "
                "--kill-after to resume from the checkpoint\n");
    return 0;
  }

  for (const report::WorkloadDigest& digest : report.workload_digests()) {
    std::printf("  %-10s median %.2f ms  p90 %.2f ms  (%zu probes, %zu "
                "lost)\n",
                tools::grid_name(digest.tool),
                digest.reported_rtt_ms.quantile(0.5),
                digest.reported_rtt_ms.quantile(0.9), digest.probes,
                digest.lost);
  }

  if (verify) {
    std::printf("verify: re-running uninterrupted in memory...\n");
    const testbed::CampaignReport truth =
        testbed::Campaign(demo_campaign()).run(workers);
    if (digest_dump(report) != digest_dump(truth)) {
      std::fprintf(stderr,
                   "FAIL: resumed digests differ from uninterrupted run\n");
      return 1;
    }
    std::printf("verified: resumed merge is bit-identical to an "
                "uninterrupted run\n");
  }
  return 0;
}
