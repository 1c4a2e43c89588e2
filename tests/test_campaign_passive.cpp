// The passive campaign axis, pinned bit for bit: a grid mixing active-only
// and passive-vantage workloads must merge byte-identically for any worker
// count, on fresh and reused shard contexts, and across kill/resume ticks
// — and the passive observers must be pure observers (a
// workload with a passive vantage produces the exact same ACTIVE samples
// as the same workload without it).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_testing.hpp"
#include "report/checkpoint.hpp"
#include "report/jsonl_sink.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using passive::PassiveVantage;
using sim::Duration;
using testing::digest_dump;
using testing::RecordedShard;
using testing::SampleRecorder;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name)
      : path("campaign_passive_test_" + name) {
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

WorkloadSpec workload(ToolKind tool, PassiveVantage vantage) {
  WorkloadSpec spec;
  spec.tool = tool;
  spec.passive = vantage;
  return spec;
}

/// The acceptance grid: active-only, sniffer-only, exec-env-only and
/// both-vantage workloads mixed with multi-phone scenarios (two phones on
/// one channel share one sniffer and collide on equal per-phone flow ids,
/// so the estimator's (node, flow) keying is exercised, not just assumed).
CampaignSpec passive_mix_spec() {
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.emulated_rtts = {Duration::millis(10)};
  grid.workloads = {workload(ToolKind::icmp_ping, PassiveVantage::none),
                    workload(ToolKind::java_ping, PassiveVantage::sniffer),
                    workload(ToolKind::httping, PassiveVantage::both),
                    workload(ToolKind::acutemon, PassiveVantage::exec_env)};
  CampaignSpec spec;
  spec.seed = 2016;
  spec.scenarios = grid.expand();  // 8 shards
  spec.probes_per_phone = 4;
  spec.probe_interval = Duration::millis(60);
  spec.probe_timeout = Duration::millis(900);
  spec.settle = Duration::millis(60);
  return spec;
}

TEST(CampaignPassive, PassiveSamplesFlowIntoDigestsAndRecords) {
  CampaignSpec spec = passive_mix_spec();
  SampleRecorder recorder;
  spec.sinks = recorder.sinks();
  Campaign campaign(spec);
  ShardContext context;
  // Shard 1: one phone, java_ping + sniffer vantage.
  const report::ShardCheckpoint sniffer_shard =
      campaign.run_shard_record(1, context);
  ASSERT_EQ(sniffer_shard.digests.size(), 1u);
  EXPECT_EQ(sniffer_shard.digests[0].tool, ToolKind::java_ping);
  EXPECT_EQ(sniffer_shard.digests[0].passive_sniffer_samples, 4u);
  EXPECT_EQ(sniffer_shard.digests[0].passive_app_samples, 0u);
  EXPECT_EQ(recorder.at(1).sniffer_rtt_ms.size(), 4u);
  EXPECT_TRUE(recorder.at(1).app_rtt_ms.empty());
  // Passive samples never count as probes.
  EXPECT_EQ(sniffer_shard.summary.probes_sent, 4u);

  // Shard 2: one phone, httping + both vantages (httping = N+1 exchanges).
  const report::ShardCheckpoint both_shard =
      campaign.run_shard_record(2, context);
  ASSERT_EQ(both_shard.digests.size(), 1u);
  EXPECT_EQ(both_shard.digests[0].passive_sniffer_samples, 5u);
  EXPECT_EQ(both_shard.digests[0].passive_app_samples, 5u);
  EXPECT_EQ(both_shard.summary.probes_sent, 4u);

  // Shard 0: active-only control — every passive surface stays empty.
  const report::ShardCheckpoint control = campaign.run_shard_record(0, context);
  ASSERT_EQ(control.digests.size(), 1u);
  EXPECT_EQ(control.digests[0].passive_sniffer_samples, 0u);
  EXPECT_EQ(control.digests[0].passive_app_samples, 0u);
  EXPECT_TRUE(recorder.at(0).sniffer_rtt_ms.empty());
  EXPECT_TRUE(recorder.at(0).app_rtt_ms.empty());
}

TEST(CampaignPassive, ObserversDoNotPerturbTheActiveMeasurement) {
  // The same scenario with and without passive vantage points must report
  // the exact same active samples: attaching an observer is not allowed to
  // shift a single event in the simulation.
  CampaignSpec with = passive_mix_spec();
  CampaignSpec without = passive_mix_spec();
  for (ScenarioSpec& scenario : without.scenarios) {
    for (PhoneSpec& phone : scenario.phones) {
      phone.workload.passive = PassiveVantage::none;
    }
  }
  SampleRecorder observed, plain;
  with.sinks = observed.sinks();
  without.sinks = plain.sinks();
  (void)Campaign(with).run(2);
  (void)Campaign(without).run(2);
  ASSERT_EQ(observed.shards().size(), with.scenarios.size());
  for (const auto& [i, shard] : observed.shards()) {
    const RecordedShard& control = plain.at(i);
    EXPECT_EQ(shard.rtt_ms, control.rtt_ms) << "shard " << i;
    EXPECT_EQ(shard.du_ms, control.du_ms) << "shard " << i;
    EXPECT_EQ(shard.dn_ms, control.dn_ms) << "shard " << i;
    EXPECT_EQ(shard.summary.probes_sent, control.summary.probes_sent);
    EXPECT_EQ(shard.summary.probes_lost, control.summary.probes_lost);
    EXPECT_EQ(shard.summary.frames_on_air, control.summary.frames_on_air);
    EXPECT_EQ(shard.summary.sim_seconds, control.summary.sim_seconds);
  }
}

TEST(CampaignPassive, FreshAndReusedContextsMatchBitForBit) {
  // The record carries the passive digests and counters, so equal rendered
  // lines mean the warm estimator and monitor reset exactly.
  Campaign campaign(passive_mix_spec());
  ShardContext context;
  for (std::size_t i = 0; i < campaign.scenario_count(); ++i) {
    ShardContext fresh;
    EXPECT_EQ(
        report::render_checkpoint_record(campaign.run_shard_record(i, fresh)),
        report::render_checkpoint_record(
            campaign.run_shard_record(i, context)))
        << "shard " << i;
  }
  EXPECT_EQ(context.reuses(), campaign.scenario_count() - 1);
}

TEST(CampaignPassive, JsonlAndDigestsIdenticalAcrossWorkerCounts) {
  std::string reference_digests;
  std::string reference_jsonl;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    TempFile jsonl("workers_" + std::to_string(workers) + ".jsonl");
    CampaignSpec spec = passive_mix_spec();
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
    // Passive events are exported with their vantage spelled out.
    EXPECT_NE(bytes.find("\"vantage\":\"passive-sniffer\""), std::string::npos);
    EXPECT_NE(bytes.find("\"vantage\":\"passive-app\""), std::string::npos);
    EXPECT_NE(bytes.find("\"vantage\":\"active\""), std::string::npos);
    if (reference_jsonl.empty()) {
      reference_jsonl = bytes;
    } else {
      EXPECT_EQ(bytes, reference_jsonl)
          << workers << "-worker JSONL differs from the 1-worker run";
    }
  }
}

TEST(CampaignPassive, FrontierKillResumeTicksMatchUninterruptedRun) {
  // Reference: uninterrupted 1-worker frontier sweep.
  TempFile reference_ckpt("reference.ckpt");
  CampaignSpec reference_spec = passive_mix_spec();
  reference_spec.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(reference_spec).run(1);
  const std::string reference_digests = digest_dump(reference);

  // Ticked: 8-worker increments of at most 3 shards, a fresh Campaign per
  // tick — only the checkpoint file carries state across the kills.
  TempFile ticked_ckpt("ticked.ckpt");
  CampaignReport ticked;
  for (int tick = 0; tick < 8; ++tick) {
    CampaignSpec tick_spec = passive_mix_spec();
    tick_spec.checkpoint_path = ticked_ckpt.path;
    tick_spec.max_shards = 3;
    ticked = Campaign(tick_spec).run(8);
    if (ticked.completed_shards() == ticked.shard_count()) break;
  }
  EXPECT_EQ(ticked.completed_shards(), reference.completed_shards());
  EXPECT_EQ(digest_dump(ticked), reference_digests);
  EXPECT_EQ(ticked.total_probes(), reference.total_probes());

  // Compact both files through one more resume: byte-identical checkpoints.
  for (const std::string* path : {&reference_ckpt.path, &ticked_ckpt.path}) {
    CampaignSpec compact_spec = passive_mix_spec();
    compact_spec.checkpoint_path = *path;
    const CampaignReport compacted = Campaign(compact_spec).run(1);
    EXPECT_EQ(compacted.completed_shards(), compacted.shard_count());
    EXPECT_EQ(digest_dump(compacted), reference_digests);
  }
  const std::string reference_bytes = file_bytes(reference_ckpt.path);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(file_bytes(ticked_ckpt.path), reference_bytes);
}

TEST(CampaignPassive, PassiveAxisIsPartOfTheSpecHash) {
  // A checkpoint written with passive vantage points cannot be resumed by a
  // spec whose passive axis was edited away: the spec hash must differ.
  TempFile ckpt("hash.ckpt");
  CampaignSpec spec = passive_mix_spec();
  spec.checkpoint_path = ckpt.path;
  (void)Campaign(spec).run(2);

  CampaignSpec edited = passive_mix_spec();
  for (ScenarioSpec& scenario : edited.scenarios) {
    for (PhoneSpec& phone : scenario.phones) {
      phone.workload.passive = PassiveVantage::none;
    }
  }
  edited.checkpoint_path = ckpt.path;
  EXPECT_THROW((void)Campaign(edited).run(1), sim::ContractViolation);
}

}  // namespace
}  // namespace acute::testbed
