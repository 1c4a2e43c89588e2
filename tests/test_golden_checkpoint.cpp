// Committed output bytes: tests/golden/ pins the ckpt2 codec and the
// campaign's merged results to files, not only to a second code path that
// could drift with the first.
//
// How mixed_workloads.ckpt2 was generated: golden_spec() below (16 shards:
// one and two phones, loss 0 and 0.2, AcuteMon, ICMP ping, httping with
// both passive vantages, and Java ping, so du/dk/dv/dn and both passive
// digests carry centroids) ran through Campaign::run(1) with
// checkpoint_path set, and the file was then compacted with
// compact_checkpoint(path). It was written by the iostream codec that
// preceded the canonical string codec, so these bytes are also the
// compatibility pin.
//
// How mixed_workloads.digests was generated: the same golden_spec(), with
// no checkpoint, ran through Campaign::run(1) while the campaign still had
// its buffered mode (before the frontier became the only path), and
// testbed::write_report_digests' format — the `acute_fabric --digest-out`
// dump, doubles as IEEE-754 bit patterns — was written to the file. Every
// determinism path below must reproduce it byte for byte: worker counts,
// kill/resume, a holed checkpoint and the fabric coordinator.
//
// How one_ping_grid.digests was generated: one_ping_spec() below (2000
// one-phone, one-ping shards on the bench_large_campaign grid shape: 50
// emulated RTTs x reorder x 20 loss rates, iterated lazily) ran through
// Campaign::run(1), and write_report_digests' dump was written to the file.
// Its ~1700 one-sample shard digests cross the campaign digest's
// 4*compression pending threshold by merges alone, which the 16 shards
// above never do, so this file pins the buffered merge's compaction points.
// It was written when merges became appends to the pending buffer.
//
// Regenerate any of these files only with a deliberate change to output
// bits, by the same steps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign_testing.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "report/checkpoint.hpp"
#include "sim/random.hpp"
#include "testbed/campaign.hpp"

namespace acute::report {
namespace {

using passive::PassiveVantage;
using sim::Duration;
using testbed::Campaign;
using testbed::CampaignReport;
using testbed::CampaignSpec;
using testbed::ScenarioGrid;
using testbed::WorkloadSpec;
using testing::digest_dump;
using tools::ToolKind;

const std::string kGoldenPath =
    std::string(ACUTE_GOLDEN_DIR) + "/mixed_workloads.ckpt2";
const std::string kGoldenDigestsPath =
    std::string(ACUTE_GOLDEN_DIR) + "/mixed_workloads.digests";
const std::string kOnePingDigestsPath =
    std::string(ACUTE_GOLDEN_DIR) + "/one_ping_grid.digests";

struct TempFile {
  explicit TempFile(const std::string& name)
      : path("golden_checkpoint_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The golden file's lines, each with its '\n'.
std::vector<std::string> golden_lines() {
  std::vector<std::string> lines;
  std::istringstream in(read_file(kGoldenPath));
  for (std::string line; std::getline(in, line);) lines.push_back(line + '\n');
  return lines;
}

WorkloadSpec workload(ToolKind tool, PassiveVantage vantage) {
  WorkloadSpec spec;
  spec.tool = tool;
  spec.passive = vantage;
  return spec;
}

CampaignSpec golden_spec() {
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.emulated_rtts = {Duration::millis(10)};
  grid.loss_rates = {0.0, 0.2};
  grid.workloads = {workload(ToolKind::acutemon, PassiveVantage::none),
                    workload(ToolKind::icmp_ping, PassiveVantage::none),
                    workload(ToolKind::httping, PassiveVantage::both),
                    workload(ToolKind::java_ping, PassiveVantage::none)};
  CampaignSpec spec;
  spec.seed = 2016;
  spec.grid = grid;
  spec.probes_per_phone = 4;
  spec.probe_interval = Duration::millis(60);
  spec.probe_timeout = Duration::millis(900);
  spec.settle = Duration::millis(60);
  return spec;
}

CampaignSpec one_ping_spec() {
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(Duration::millis(2 + i));
  }
  grid.reorder = {false, true};
  grid.loss_rates.clear();
  for (int i = 0; i < 20; ++i) grid.loss_rates.push_back(0.015 * i);
  CampaignSpec spec;
  spec.seed = 2017;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = Duration::millis(50);
  spec.probe_timeout = Duration::millis(400);
  spec.settle = Duration::millis(50);
  return spec;
}

/// Runs `spec` through a fabric::Coordinator and three in-process workers
/// over pipe transports, with small leases so the shards interleave.
CampaignReport run_fabric(const CampaignSpec& spec) {
  std::vector<std::unique_ptr<fabric::Transport>> coordinator_ends;
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    auto [coordinator_end, worker_end] = fabric::transport_pair();
    coordinator_ends.push_back(std::move(coordinator_end));
    workers.emplace_back([end = std::move(worker_end), spec]() mutable {
      fabric::Worker worker(spec);
      (void)worker.run(*end);
    });
  }
  fabric::CoordinatorConfig config;
  config.lease.batch = 2;
  fabric::Coordinator coordinator(spec, config);
  CampaignReport report = coordinator.run(std::move(coordinator_ends));
  for (std::thread& worker : workers) worker.join();
  return report;
}

TEST(GoldenCheckpoint, EveryRecordReRendersByteForByte) {
  const std::vector<std::string> lines = golden_lines();
  ASSERT_EQ(lines.size(), 16u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    ShardCheckpoint record;
    ASSERT_TRUE(parse_checkpoint_record(lines[i], record));
    EXPECT_EQ(record.summary.info.scenario_index, i);
    EXPECT_EQ(render_checkpoint_record(record), lines[i]);
  }
}

TEST(GoldenCheckpoint, CompactingAShuffledCopyWithDuplicatesReproducesIt) {
  const std::vector<std::string> lines = golden_lines();
  ASSERT_FALSE(lines.empty());
  // Every record once or twice (identical duplicates, as the fabric's
  // re-lease race leaves them), in a seeded random order.
  std::vector<std::string> messy = lines;
  for (std::size_t i = 0; i < lines.size(); i += 3) messy.push_back(lines[i]);
  sim::Rng rng(1405);
  for (std::size_t i = messy.size() - 1; i > 0; --i) {
    std::swap(messy[i], messy[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
  }
  std::string bytes;
  for (const std::string& line : messy) bytes += line;

  TempFile compacted("compacted");
  write_file(compacted.path, bytes);
  compact_checkpoint(compacted.path);
  EXPECT_EQ(read_file(compacted.path), read_file(kGoldenPath));
}

TEST(GoldenCheckpoint, TheGoldenCampaignStillWritesTheseBytes) {
  TempFile checkpoint("campaign");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  const CampaignReport report = Campaign(spec).run(1);
  ASSERT_EQ(report.completed_shards(), 16u);
  compact_checkpoint(checkpoint.path);
  EXPECT_EQ(read_file(checkpoint.path), read_file(kGoldenPath));
}

TEST(GoldenDigests, EveryWorkerCountReproducesTheFile) {
  const std::string golden = read_file(kGoldenDigestsPath);
  ASSERT_FALSE(golden.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    EXPECT_EQ(digest_dump(Campaign(golden_spec()).run(workers)), golden);
  }
}

TEST(GoldenDigests, KillResumeTicksReproduceTheFile) {
  // Kill after 3 shards, tick 2 more, then finish: a fresh Campaign per
  // tick, only the checkpoint file carrying state.
  TempFile checkpoint("ticks");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  CampaignReport report;
  std::size_t done = 0;
  for (const std::size_t cap : {3, 2, 0}) {
    spec.max_shards = cap;
    report = Campaign(spec).run(2);
    done = cap == 0 ? 16 : done + cap;
    EXPECT_EQ(report.completed_shards(), done);
  }
  EXPECT_EQ(digest_dump(report), read_file(kGoldenDigestsPath));
}

TEST(GoldenDigests, HoledCheckpointResumeReproducesTheFile) {
  // Every third record gone: restored shards interleave with re-run ones,
  // the ordering the frontier's restored/fresh slot walk must get right.
  TempFile checkpoint("holes");
  std::string holed;
  const std::vector<std::string> lines = golden_lines();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % 3 != 1) holed += lines[i];
  }
  write_file(checkpoint.path, holed);
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  EXPECT_EQ(digest_dump(Campaign(spec).run(2)),
            read_file(kGoldenDigestsPath));
}

TEST(GoldenDigests, FabricCoordinatorReproducesTheFile) {
  // The coordinator's compacted checkpoint must also be the golden
  // checkpoint.
  TempFile checkpoint("fabric");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  EXPECT_EQ(digest_dump(run_fabric(spec)), read_file(kGoldenDigestsPath));
  EXPECT_EQ(read_file(checkpoint.path), read_file(kGoldenPath));
}

TEST(GoldenDigests, OnePingGridReproducesTheFile) {
  const std::string golden = read_file(kOnePingDigestsPath);
  ASSERT_FALSE(golden.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    EXPECT_EQ(digest_dump(Campaign(one_ping_spec()).run(workers)), golden);
  }

  // Killed after 700 shards, then resumed from the checkpoint alone.
  TempFile ticks("one_ping_ticks");
  CampaignSpec spec = one_ping_spec();
  spec.checkpoint_path = ticks.path;
  spec.max_shards = 700;
  EXPECT_EQ(Campaign(spec).run(4).completed_shards(), 700u);
  spec.max_shards = 0;
  const CampaignReport resumed = Campaign(spec).run(4);
  EXPECT_EQ(resumed.completed_shards(), 2000u);
  EXPECT_EQ(digest_dump(resumed), golden);

  TempFile fabric_checkpoint("one_ping_fabric");
  spec.checkpoint_path = fabric_checkpoint.path;
  EXPECT_EQ(digest_dump(run_fabric(spec)), golden);
}

}  // namespace
}  // namespace acute::report
