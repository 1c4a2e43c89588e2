// The shard-context pool's hard constraint, pinned bit for bit: a shard
// executed on a REUSED ShardContext (warm simulator, rebuilt testbed,
// reinitialized tools, reset sink scratch) must produce byte-identical
// results to one executed on a fresh context — digests (compared through
// their exact IEEE-754 serialization), JSONL export bytes and checkpoint
// records — for any worker count and across kill/resume ticks. The grid
// deliberately changes shape between consecutive shards (phone count,
// radio, tool kind, netem axes) so every reset transition of the pool is
// exercised, not just the same-shape fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_testing.hpp"
#include "report/checkpoint.hpp"
#include "report/jsonl_sink.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using sim::Duration;
using testing::digest_dump;
using testing::RecordedShard;
using testing::SampleRecorder;

struct TempFile {
  explicit TempFile(const std::string& name)
      : path("context_reuse_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A grid whose consecutive shards change shape: the innermost axis flips
/// the tool kind, then loss, then RTT, then the radio, then the phone
/// count — so a context that just ran a 1-phone WiFi ping shard is next
/// reset into (eventually) a 3-phone cellular AcuteMon shard.
CampaignSpec shape_shifting_spec() {
  ScenarioGrid grid;
  grid.phone_counts = {1, 3};
  grid.radios = {phone::RadioKind::wifi, phone::RadioKind::cellular};
  grid.emulated_rtts = {Duration::millis(10), Duration::millis(30)};
  grid.loss_rates = {0.0, 0.05};
  grid.workloads = {WorkloadSpec{tools::ToolKind::icmp_ping},
                    WorkloadSpec{tools::ToolKind::acutemon}};
  CampaignSpec spec;
  spec.seed = 7;
  spec.scenarios = grid.expand();  // 32 shards
  spec.probes_per_phone = 2;
  spec.probe_interval = Duration::millis(50);
  spec.probe_timeout = Duration::millis(400);
  spec.settle = Duration::millis(50);
  return spec;
}

TEST(CampaignContextReuse, ReusedShardsMatchFreshBitForBit) {
  // The rendered record holds every counter and digest bit of the shard.
  Campaign campaign(shape_shifting_spec());
  ShardContext context;
  for (std::size_t i = 0; i < campaign.scenario_count(); ++i) {
    ShardContext fresh;
    EXPECT_EQ(
        report::render_checkpoint_record(campaign.run_shard_record(i, fresh)),
        report::render_checkpoint_record(
            campaign.run_shard_record(i, context)))
        << "shard " << i << " differs between fresh and reused";
  }
  EXPECT_EQ(context.shards_run(), campaign.scenario_count());
  EXPECT_EQ(context.reuses(), campaign.scenario_count() - 1);
}

TEST(CampaignContextReuse, RawSamplesMatchFresh) {
  // Per-probe values, exactly: one recorder sees each shard run on a fresh
  // context, the other the same shard on the reused one.
  CampaignSpec spec = shape_shifting_spec();
  SampleRecorder fresh_samples, reused_samples;
  spec.sinks = fresh_samples.sinks();
  const Campaign fresh_campaign(spec);
  spec.sinks = reused_samples.sinks();
  const Campaign reused_campaign(spec);
  ShardContext context;
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    ShardContext fresh;
    (void)fresh_campaign.run_shard_record(i, fresh);
    (void)reused_campaign.run_shard_record(i, context);
    const RecordedShard& a = fresh_samples.at(i);
    const RecordedShard& b = reused_samples.at(i);
    EXPECT_EQ(a.rtt_ms, b.rtt_ms) << "shard " << i;
    EXPECT_EQ(a.du_ms, b.du_ms);
    EXPECT_EQ(a.dk_ms, b.dk_ms);
    EXPECT_EQ(a.dv_ms, b.dv_ms);
    EXPECT_EQ(a.dn_ms, b.dn_ms);
  }
}

/// The campaign pool reuses one context per worker; the merged report and
/// the JSONL export must be the same bytes at 1 worker (one context runs
/// every shape transition) and 8 workers (each context sees a subsequence).
TEST(CampaignContextReuse, JsonlAndDigestsIdenticalAcrossWorkerCounts) {
  std::string reference_digests;
  std::string reference_jsonl;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    TempFile jsonl("workers_" + std::to_string(workers) + ".jsonl");
    CampaignSpec spec = shape_shifting_spec();
    {
      auto writer = std::make_shared<report::JsonlWriter>(jsonl.path);
      spec.sinks = report::jsonl_sink_factory(writer);
      Campaign campaign(spec);
      const CampaignReport report = campaign.run(workers);
      EXPECT_EQ(report.completed_shards(), campaign.scenario_count());
      const std::string digests = digest_dump(report);
      if (reference_digests.empty()) {
        reference_digests = digests;
      } else {
        EXPECT_EQ(digests, reference_digests)
            << workers << "-worker digests differ from the 1-worker run";
      }
    }
    const std::string bytes = file_bytes(jsonl.path);
    ASSERT_FALSE(bytes.empty());
    if (reference_jsonl.empty()) {
      reference_jsonl = bytes;
    } else {
      EXPECT_EQ(bytes, reference_jsonl)
          << workers << "-worker JSONL differs from the 1-worker run";
    }
  }
}

/// Kill/resume across checkpointed ticks, reused contexts throughout: the
/// final merged digests and the compacted checkpoint file must be byte
/// identical to an uninterrupted single-worker run's.
TEST(CampaignContextReuse, CheckpointTicksMatchUninterruptedRun) {
  // Reference: one uninterrupted 1-worker sweep.
  TempFile reference_ckpt("reference.ckpt");
  CampaignSpec reference_spec = shape_shifting_spec();
  reference_spec.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(reference_spec).run(1);
  const std::string reference_digests =
      digest_dump(reference);

  // Ticked: 8-worker increments of at most 12 shards, a fresh Campaign per
  // tick — nothing but the checkpoint file carries state across ticks.
  TempFile ticked_ckpt("ticked.ckpt");
  CampaignReport ticked;
  for (int tick = 0; tick < 4; ++tick) {
    CampaignSpec tick_spec = shape_shifting_spec();
    tick_spec.checkpoint_path = ticked_ckpt.path;
    tick_spec.max_shards = 12;
    ticked = Campaign(tick_spec).run(8);
    if (ticked.completed_shards() == ticked.shard_count()) break;
  }
  EXPECT_EQ(ticked.completed_shards(), reference.completed_shards());
  EXPECT_EQ(digest_dump(ticked), reference_digests);
  EXPECT_EQ(ticked.total_probes(), reference.total_probes());
  EXPECT_EQ(ticked.total_lost(), reference.total_lost());

  // Raw files may order lines by completion; compact both through one more
  // resume (load rewrites the file in ascending scenario order) and the
  // bytes must then match exactly.
  for (const std::string* path : {&reference_ckpt.path, &ticked_ckpt.path}) {
    CampaignSpec compact_spec = shape_shifting_spec();
    compact_spec.checkpoint_path = *path;
    const CampaignReport compacted = Campaign(compact_spec).run(1);
    EXPECT_EQ(compacted.completed_shards(), compacted.shard_count());
    EXPECT_EQ(digest_dump(compacted), reference_digests);
  }
  const std::string reference_bytes = file_bytes(reference_ckpt.path);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(file_bytes(ticked_ckpt.path), reference_bytes)
      << "compacted checkpoints differ between ticked 8-worker and "
         "uninterrupted 1-worker sweeps";
}

}  // namespace
}  // namespace acute::testbed
