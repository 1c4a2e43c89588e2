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
// Regenerate either file only with a deliberate change to output bits, by
// the same steps.
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
  // Three in-process workers over pipe transports, small leases so the
  // shards interleave across them; the coordinator's compacted checkpoint
  // must also be the golden checkpoint.
  TempFile checkpoint("fabric");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
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
  const CampaignReport report = coordinator.run(std::move(coordinator_ends));
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(digest_dump(report), read_file(kGoldenDigestsPath));
  EXPECT_EQ(read_file(checkpoint.path), read_file(kGoldenPath));
}

}  // namespace
}  // namespace acute::report
