// Reproduces: no single figure — this scales the paper's Fig. 1/Table 2
// du/dk/dv/dn methodology to a fleet-sized scenario grid (the §1
// crowdsourcing setting), executed by the Campaign engine.
//
// Fleet campaign walkthrough: sweep a scenario grid across every core.
//
// This is the Campaign-engine counterpart of crowdsourced_campaign: instead
// of hand-rolling one Testbed per condition, describe the sweep as a
// ScenarioGrid (phone count x handset x radio x path RTT x load), hand the
// expanded scenarios to testbed::Campaign, and let the sharded worker pool
// execute them — bit-identically for any worker count. The campaign keeps
// only the merged fleet digests; the per-scenario rows are read back from
// its checkpoint, one ShardCheckpoint record per scenario.
//
// Usage: ./build/example_fleet_campaign [workers]
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "report/checkpoint.hpp"
#include "stats/table.hpp"
#include "testbed/campaign.hpp"

using namespace acute;
using sim::Duration;

int main(int argc, char** argv) {
  std::size_t workers =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10)
               : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  // The sweep: every handset profile, WiFi and cellular stacks, two path
  // RTTs, quiet and congested WLAN — 1 and 3 phones contending.
  testbed::ScenarioGrid grid;
  grid.phone_counts = {1, 3};
  grid.profiles = {phone::PhoneProfile::nexus5(), phone::PhoneProfile::nexus4(),
                   phone::PhoneProfile::htc_one()};
  grid.radios = {phone::RadioKind::wifi, phone::RadioKind::cellular};
  grid.emulated_rtts = {Duration::millis(20), Duration::millis(60)};
  grid.cross_traffic = {false, true};

  testbed::CampaignSpec spec;
  spec.seed = 2016;  // the paper's vintage
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 15;
  spec.probe_interval = Duration::millis(250);
  spec.checkpoint_path = "fleet_campaign.ckpt";
  std::remove(spec.checkpoint_path.c_str());  // run fresh, never resume

  std::printf("fleet campaign: %zu scenarios on %zu workers...\n",
              spec.scenarios.size(), workers);
  testbed::Campaign campaign(spec);
  const testbed::CampaignReport report = campaign.run(workers);

  // Per-shard view: one row per scenario, read back from the checkpoint
  // after compacting it into deterministic scenario order.
  report::compact_checkpoint(spec.checkpoint_path);
  stats::Table table({"scenario", "phones", "radio", "nRTT", "load",
                      "median du", "median dn", "lost"});
  report::for_each_checkpoint(
      spec.checkpoint_path, [&](report::ShardCheckpoint&& shard) {
        const std::size_t index = shard.summary.info.scenario_index;
        const testbed::ScenarioSpec& scenario = spec.scenarios[index];
        const bool cellular =
            scenario.count_radio(phone::RadioKind::cellular) > 0;
        stats::MergingDigest du, dn;
        for (const report::WorkloadDigest& digest : shard.digests) {
          du.merge(digest.du_ms);
          dn.merge(digest.dn_ms);
        }
        const auto median = [](const stats::MergingDigest& digest) {
          return digest.count() == 0
                     ? std::string("-")
                     : stats::Table::cell(digest.quantile(0.5));
        };
        table.add_row(
            {std::to_string(index) + " " +
                 scenario.phones.front().profile.name,
             std::to_string(shard.summary.info.phone_count),
             cellular ? "cell" : "wifi",
             stats::Table::cell(scenario.emulated_rtt.to_ms()) + " ms",
             scenario.congested_phy ? "iperf" : "quiet", median(du),
             median(dn), std::to_string(shard.summary.probes_lost)});
      });
  std::remove(spec.checkpoint_path.c_str());
  std::printf("%s", table.to_string().c_str());

  // Fleet-wide merge (what a crowdsourcing backend would aggregate).
  if (report.total_probes() == report.total_lost()) {
    std::printf("\nevery probe was lost; no fleet summary\n");
    return 1;
  }
  const stats::MergingDigest fleet = report.rtt_digest();
  std::printf(
      "\nfleet: %zu probes (%zu lost), user-level RTT median %.2f ms, "
      "p95 %.2f ms\n"
      "work: %llu frames on air, %llu simulator events, %.0f simulated s\n",
      report.total_probes(), report.total_lost(), fleet.quantile(0.5),
      fleet.quantile(0.95),
      static_cast<unsigned long long>(report.total_frames()),
      static_cast<unsigned long long>(report.total_events()),
      report.total_sim_seconds());
  std::printf(
      "\nThe spread between the wifi rows' du and dn columns is the paper's\n"
      "inflated delay at fleet scale; cellular rows trade PSM/SDIO wake for\n"
      "RRC promotion. Re-run with any worker count: rows are bit-identical.\n");
  return 0;
}
