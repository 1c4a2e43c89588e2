// Reproduces: Fig. 8 (reported-RTT CDFs of the four tools, idle vs
// congested WLAN) — here at campaign scale: the whole tool-comparison
// matrix runs through testbed::Campaign's workload axis instead of four
// hand-rolled testbeds, and every statistic comes from the streaming
// per-shard digests, so the same program scales to 10^5-scenario sweeps
// without buffering samples. The per-cell rows are the campaign's
// checkpoint records, read back one shard at a time.
//
// Usage: ./build/example_tool_shootout [emulated_rtt_ms] [probes] [workers]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report/checkpoint.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "testbed/campaign.hpp"
#include "tools/factory.hpp"

using namespace acute;
using sim::Duration;

namespace {

// "mean ±ci95" from the digest's exact moments (Summary::mean_ci_string's
// format, recovered without buffering samples).
std::string mean_ci(const stats::MergingDigest& digest) {
  const double ci = digest.count() > 1
                        ? stats::student_t_975(digest.count() - 1) *
                              digest.stddev() /
                              std::sqrt(double(digest.count()))
                        : 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.2f ±%.2f", digest.mean(), ci);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const int rtt_ms = argc > 1 ? std::atoi(argv[1]) : 30;
  const int probes = argc > 2 ? std::atoi(argv[2]) : 100;
  std::size_t workers = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                 : std::thread::hardware_concurrency();
  if (rtt_ms <= 0 || probes <= 0) {
    std::fprintf(stderr, "usage: %s [emulated_rtt_ms>0] [probes>0] [workers]\n",
                 argv[0]);
    return 1;
  }
  if (workers == 0) workers = 1;

  // The workload matrix: all four tools x idle/congested WLAN, expanded as
  // one grid (workload is the innermost axis) and executed as one campaign.
  testbed::ScenarioGrid grid;
  grid.emulated_rtts = {Duration::millis(rtt_ms)};
  grid.cross_traffic = {false, true};
  grid.workloads = {testbed::WorkloadSpec{tools::ToolKind::acutemon},
                    testbed::WorkloadSpec{tools::ToolKind::httping},
                    testbed::WorkloadSpec{tools::ToolKind::icmp_ping},
                    testbed::WorkloadSpec{tools::ToolKind::java_ping}};

  testbed::CampaignSpec spec;
  spec.seed = 42;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = probes;
  spec.probe_interval = Duration::seconds(1);
  spec.checkpoint_path = "tool_shootout.ckpt";
  std::remove(spec.checkpoint_path.c_str());  // run fresh, never resume

  std::printf(
      "Tool shoot-out on a simulated Nexus 5 (Fig. 8 scenario)\n"
      "%zu scenarios (4 tools x idle/congested WLAN) on %zu workers\n",
      spec.scenarios.size(), workers);
  (void)testbed::Campaign(spec).run(workers);
  // Ascending scenario order, one record per shard.
  report::compact_checkpoint(spec.checkpoint_path);

  // One shard per (load, tool) cell; shards are in scenario order with the
  // workload axis innermost, so rows group naturally by load.
  for (const bool congested : {false, true}) {
    std::printf("\n--- %s (emulated RTT %d ms, %d probes/tool) ---\n",
                congested ? "congested WLAN (10 x 2.5 Mbit/s UDP)"
                          : "idle WLAN",
                rtt_ms, probes);
    stats::Table table(
        {"tool", "median", "p90", "mean", "loss", "median inflation"});
    report::for_each_checkpoint(
        spec.checkpoint_path, [&](report::ShardCheckpoint&& shard) {
          const testbed::ScenarioSpec& scenario =
              spec.scenarios[shard.summary.info.scenario_index];
          if (scenario.congested_phy != congested) return;
          for (const report::WorkloadDigest& digest : shard.digests) {
            const auto& rtt = digest.reported_rtt_ms;
            table.add_row({tools::to_string(digest.tool),
                           stats::Table::cell(rtt.quantile(0.5)),
                           stats::Table::cell(rtt.quantile(0.9)),
                           mean_ci(rtt), std::to_string(digest.lost),
                           stats::Table::cell(rtt.quantile(0.5) - rtt_ms) +
                               " ms"});
          }
        });
    std::printf("%s", table.to_string().c_str());
  }
  std::remove(spec.checkpoint_path.c_str());
  // Heterogeneous per-phone workloads *within one scenario*: four phones on
  // one channel, each running a different tool (ScenarioSpec::
  // assign_workloads round-robins the mix), so the zoo contends against
  // itself instead of being measured in isolation.
  testbed::ScenarioSpec mixed;
  mixed.phones.assign(4, testbed::PhoneSpec{});
  mixed.emulated_rtt = Duration::millis(rtt_ms);
  mixed.assign_workloads({testbed::WorkloadSpec{tools::ToolKind::acutemon},
                          testbed::WorkloadSpec{tools::ToolKind::httping},
                          testbed::WorkloadSpec{tools::ToolKind::icmp_ping},
                          testbed::WorkloadSpec{tools::ToolKind::java_ping}});
  testbed::CampaignSpec mixed_spec;
  mixed_spec.seed = 42;
  mixed_spec.scenarios = {mixed};
  mixed_spec.probes_per_phone = probes;
  mixed_spec.probe_interval = Duration::seconds(1);
  const testbed::CampaignReport mixed_report =
      testbed::Campaign(mixed_spec).run(1);

  std::printf("\n--- mixed fleet: 4 phones, 4 tools, ONE channel ---\n");
  stats::Table mixed_table({"tool", "median", "p90", "mean", "loss"});
  for (const report::WorkloadDigest& digest :
       mixed_report.workload_digests()) {
    const auto& rtt = digest.reported_rtt_ms;
    mixed_table.add_row({tools::to_string(digest.tool),
                         stats::Table::cell(rtt.quantile(0.5)),
                         stats::Table::cell(rtt.quantile(0.9)), mean_ci(rtt),
                         std::to_string(digest.lost)});
  }
  std::printf("%s", mixed_table.to_string().c_str());

  std::printf(
      "\nReading: AcuteMon's median sits ~10 ms left of every other tool —\n"
      "the others pay the SDIO wake-up (and, on short-Tip handsets, PSM\n"
      "buffering) on every probe. Re-run with any worker count: the rows\n"
      "are bit-identical (per-shard seeds + scenario-order digest merge).\n");
  return 0;
}
