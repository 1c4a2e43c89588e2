// Committed checkpoint bytes: tests/golden/mixed_workloads.ckpt2 pins the
// ckpt2 codec and the campaign's output bits to a file, not only to a
// second code path that could drift with the first.
//
// How the file was generated: golden_spec() below (16 shards: one and two
// phones, loss 0 and 0.2, AcuteMon, ICMP ping, httping with both passive
// vantages, and Java ping, so du/dk/dv/dn and both passive digests carry
// centroids) ran through Campaign::run(1) with checkpoint_path set, and the
// file was then compacted with compact_checkpoint(path). It was written by
// the iostream codec that preceded the canonical string codec, before that
// codec was replaced, so these bytes are also the compatibility pin.
// Regenerate it only with a deliberate change to output bits, by the same
// steps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report/checkpoint.hpp"
#include "sim/random.hpp"
#include "testbed/campaign.hpp"

namespace acute::report {
namespace {

using passive::PassiveVantage;
using sim::Duration;
using testbed::CampaignSpec;
using testbed::ScenarioGrid;
using testbed::WorkloadSpec;
using tools::ToolKind;

const std::string kGoldenPath =
    std::string(ACUTE_GOLDEN_DIR) + "/mixed_workloads.ckpt2";

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
  spec.keep_samples = false;
  spec.retain_shards = false;
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

  TempFile streaming("streaming");
  write_file(streaming.path, bytes);
  compact_checkpoint(streaming.path);
  EXPECT_EQ(read_file(streaming.path), read_file(kGoldenPath));

  TempFile materialized("materialized");
  write_file(materialized.path, bytes);
  compact_checkpoint(materialized.path, load_checkpoint(materialized.path));
  EXPECT_EQ(read_file(materialized.path), read_file(kGoldenPath));
}

TEST(GoldenCheckpoint, TheGoldenCampaignStillWritesTheseBytes) {
  TempFile checkpoint("campaign");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  const testbed::CampaignReport report = testbed::Campaign(spec).run(1);
  ASSERT_EQ(report.completed_shards(), 16u);
  compact_checkpoint(checkpoint.path);
  EXPECT_EQ(read_file(checkpoint.path), read_file(kGoldenPath));
}

}  // namespace
}  // namespace acute::report
