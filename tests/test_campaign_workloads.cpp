// Campaign workload matrix: per-scenario tool selection through
// tools::make_tool(), the innermost ScenarioGrid workload axis, and the
// streaming per-shard digest merge checked against the exact samples.
#include <gtest/gtest.h>

#include "campaign_testing.hpp"
#include "sim/contracts.hpp"
#include "stats/summary.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using phone::RadioKind;
using report::WorkloadDigest;
using testing::digest_dump;
using testing::RecordedShard;
using testing::SampleRecorder;
using tools::ToolKind;

std::vector<WorkloadSpec> all_four_workloads() {
  return {WorkloadSpec{ToolKind::icmp_ping}, WorkloadSpec{ToolKind::java_ping},
          WorkloadSpec{ToolKind::httping}, WorkloadSpec{ToolKind::acutemon}};
}

TEST(ScenarioGridWorkloads, WorkloadAxisExpandsInnermost) {
  ScenarioGrid grid;
  grid.emulated_rtts = {10_ms, 30_ms};
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping},
                    WorkloadSpec{ToolKind::httping}};
  ASSERT_EQ(grid.size(), 4u);
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 4u);
  // Innermost: workload; outer: RTT.
  EXPECT_EQ(scenarios[0].phones[0].workload.tool, ToolKind::icmp_ping);
  EXPECT_EQ(scenarios[1].phones[0].workload.tool, ToolKind::httping);
  EXPECT_EQ(scenarios[0].emulated_rtt, 10_ms);
  EXPECT_EQ(scenarios[1].emulated_rtt, 10_ms);
  EXPECT_EQ(scenarios[2].emulated_rtt, 30_ms);
  EXPECT_EQ(scenarios[3].phones[0].workload.tool, ToolKind::httping);
}

TEST(ScenarioGridWorkloads, EveryPhoneOfAScenarioSharesTheWorkload) {
  ScenarioGrid grid;
  grid.phone_counts = {3};
  grid.workloads = {WorkloadSpec{ToolKind::java_ping}};
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  for (const PhoneSpec& phone : scenarios[0].phones) {
    EXPECT_EQ(phone.workload.tool, ToolKind::java_ping);
  }
}

TEST(ScenarioGridWorkloads, RejectsEmptyWorkloadAxis) {
  ScenarioGrid grid;
  grid.workloads.clear();
  EXPECT_THROW((void)grid.expand(), sim::ContractViolation);
}

TEST(ScenarioGridWorkloads, LegacyGridsExpandExactlyAsBefore) {
  // (b) A grid that never touches the workload axis must produce the exact
  // same scenario vector as the pre-workload expansion: same size, same
  // nesting, every phone on the default stock-ping workload with no
  // schedule overrides.
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {10_ms, 30_ms};
  grid.cross_traffic = {false, true};
  grid.loss_rates = {0.0, 0.1};
  ASSERT_EQ(grid.size(), 32u);  // unchanged: workload axis is a single entry
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 32u);

  // Field-by-field equality with the historical nesting (outer to inner:
  // count, profile, radio, rtt, cross, loss, reorder).
  std::size_t index = 0;
  for (const std::size_t count : grid.phone_counts) {
    for (const auto& profile : grid.profiles) {
      for (const sim::Duration rtt : grid.emulated_rtts) {
        for (const bool cross : grid.cross_traffic) {
          for (const double loss : grid.loss_rates) {
            const ScenarioSpec& s = scenarios[index++];
            EXPECT_EQ(s.phones.size(), count);
            EXPECT_EQ(s.phones[0].profile.name, profile.name);
            EXPECT_EQ(s.emulated_rtt, rtt);
            EXPECT_EQ(s.congested_phy, cross);
            EXPECT_EQ(s.netem_loss, loss);
            EXPECT_FALSE(s.netem_reorder);
            for (const PhoneSpec& phone : s.phones) {
              EXPECT_EQ(phone.workload, WorkloadSpec{});
              EXPECT_EQ(phone.workload.tool, ToolKind::icmp_ping);
              EXPECT_EQ(phone.workload.probe_count, 0);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(index, scenarios.size());
}

CampaignSpec mixed_workload_campaign() {
  // The acceptance grid: 4 workloads x 2 handset profiles.
  ScenarioGrid grid;
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {15_ms};
  grid.workloads = all_four_workloads();
  CampaignSpec spec;
  spec.seed = 2016;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 6;
  spec.probe_interval = 150_ms;
  spec.probe_timeout = 2_s;
  return spec;
}

TEST(CampaignWorkloads, MixedWorkloadGridIsBitIdenticalAcrossWorkerCounts) {
  // (a) The 4-workload x 2-profile campaign must merge byte-identically for
  // 1 worker and 8 workers — exact double equality, on the raw samples AND
  // on the streaming digests.
  CampaignSpec spec = mixed_workload_campaign();
  ASSERT_EQ(spec.scenarios.size(), 8u);
  SampleRecorder serial_samples, threaded_samples;
  spec.sinks = serial_samples.sinks();
  const CampaignReport serial = Campaign(spec).run(1);
  spec.sinks = threaded_samples.sinks();
  const CampaignReport threaded = Campaign(spec).run(8);

  ASSERT_EQ(serial_samples.shards().size(), 8u);
  ASSERT_EQ(threaded_samples.shards().size(), 8u);
  for (const auto& [i, shard] : serial_samples.shards()) {
    const report::ShardSummary& other = threaded_samples.at(i).summary;
    EXPECT_EQ(shard.summary.info.shard_seed, other.info.shard_seed);
    EXPECT_EQ(shard.summary.probes_sent, other.probes_sent);
    EXPECT_EQ(shard.summary.events_fired, other.events_fired);
  }
  EXPECT_EQ(serial_samples.merged(&RecordedShard::rtt_ms),
            threaded_samples.merged(&RecordedShard::rtt_ms));
  EXPECT_EQ(serial_samples.merged(&RecordedShard::du_ms),
            threaded_samples.merged(&RecordedShard::du_ms));
  EXPECT_EQ(serial_samples.merged(&RecordedShard::dn_ms),
            threaded_samples.merged(&RecordedShard::dn_ms));
  EXPECT_EQ(digest_dump(serial), digest_dump(threaded));

  const auto serial_digests = serial.workload_digests();
  const auto threaded_digests = threaded.workload_digests();
  ASSERT_EQ(serial_digests.size(), 4u);
  ASSERT_EQ(threaded_digests.size(), 4u);
  for (std::size_t i = 0; i < serial_digests.size(); ++i) {
    EXPECT_EQ(serial_digests[i].tool, threaded_digests[i].tool);
    EXPECT_EQ(serial_digests[i].probes, threaded_digests[i].probes);
    EXPECT_EQ(serial_digests[i].lost, threaded_digests[i].lost);
    ASSERT_GT(serial_digests[i].reported_rtt_ms.count(), 0u);
    for (const double q : {0.1, 0.5, 0.9}) {
      EXPECT_EQ(serial_digests[i].reported_rtt_ms.quantile(q),
                threaded_digests[i].reported_rtt_ms.quantile(q));
    }
    EXPECT_EQ(serial_digests[i].reported_rtt_ms.mean(),
              threaded_digests[i].reported_rtt_ms.mean());
  }
}

TEST(CampaignWorkloads, EachWorkloadRunsItsOwnTool) {
  const CampaignSpec spec = mixed_workload_campaign();
  const CampaignReport report = Campaign(spec).run(2);
  // One digest per kind, ascending ToolKind order, every kind present.
  const auto digests = report.workload_digests();
  ASSERT_EQ(digests.size(), 4u);
  EXPECT_EQ(digests[0].tool, ToolKind::acutemon);
  EXPECT_EQ(digests[1].tool, ToolKind::icmp_ping);
  EXPECT_EQ(digests[2].tool, ToolKind::httping);
  EXPECT_EQ(digests[3].tool, ToolKind::java_ping);
  // 2 profiles x 6 probes per kind.
  for (const WorkloadDigest& digest : digests) {
    EXPECT_EQ(digest.probes, 12u);
  }
  // The paper's Fig. 8 ordering at the median: AcuteMon's warm path beats
  // the stock ping's PSM/SDIO-inflated one.
  EXPECT_LT(digests[0].reported_rtt_ms.quantile(0.5),
            digests[1].reported_rtt_ms.quantile(0.5));
}

TEST(CampaignWorkloads, DigestMergeMatchesBufferedMergeWithinTolerance) {
  // (c) On a small grid the streaming digests must agree with the exact
  // per-probe samples (recorded through spec.sinks): exact counters and
  // means, quantiles within the digest's accuracy (bracketed by nearby
  // order statistics of the recorded samples).
  CampaignSpec spec = mixed_workload_campaign();
  SampleRecorder recorder;
  spec.sinks = recorder.sinks();
  const CampaignReport report = Campaign(spec).run(2);

  const std::vector<double> buffered = recorder.merged(&RecordedShard::rtt_ms);
  const stats::MergingDigest streamed = report.rtt_digest();
  ASSERT_EQ(streamed.count(), buffered.size());

  const stats::Summary summary(buffered);
  EXPECT_NEAR(streamed.mean(), summary.mean(), 1e-9);  // tracked exactly
  EXPECT_DOUBLE_EQ(streamed.min(), summary.min());
  EXPECT_DOUBLE_EQ(streamed.max(), summary.max());
  for (const double q : {0.25, 0.5, 0.75, 0.9}) {
    const double estimate = streamed.quantile(q);
    // The digest interpolates between centroids; bracket with a +-10
    // percentile-point window of the exact order statistics.
    EXPECT_GE(estimate, summary.percentile(100 * q - 10));
    EXPECT_LE(estimate, summary.percentile(100 * q + 10));
  }
}

TEST(CampaignWorkloads, AssignWorkloadsMixesToolsWithinOneScenario) {
  // Heterogeneous per-phone workloads within ONE scenario: four phones on
  // one channel, each running a different tool of the Fig. 8 zoo.
  ScenarioSpec scenario;
  scenario.phones.assign(4, PhoneSpec{});
  scenario.emulated_rtt = 15_ms;
  scenario.assign_workloads(all_four_workloads());
  for (std::size_t i = 0; i < scenario.phones.size(); ++i) {
    EXPECT_EQ(scenario.phones[i].workload, all_four_workloads()[i]);
  }

  CampaignSpec spec;
  spec.seed = 9;
  spec.scenarios = {scenario};
  spec.probes_per_phone = 5;
  spec.probe_interval = 200_ms;
  spec.probe_timeout = 2_s;
  const CampaignReport report = Campaign(spec).run(1);
  ASSERT_EQ(report.completed_shards(), 1u);
  // One shard, four digests — every tool ran, in ascending ToolKind order.
  const auto digests = report.workload_digests();
  ASSERT_EQ(digests.size(), 4u);
  EXPECT_EQ(digests[0].tool, ToolKind::acutemon);
  EXPECT_EQ(digests[1].tool, ToolKind::icmp_ping);
  EXPECT_EQ(digests[2].tool, ToolKind::httping);
  EXPECT_EQ(digests[3].tool, ToolKind::java_ping);
  for (const WorkloadDigest& digest : digests) {
    EXPECT_EQ(digest.probes, 5u);
  }
}

TEST(CampaignWorkloads, AssignWorkloadsRoundRobinsShorterMixes) {
  ScenarioSpec scenario;
  scenario.phones.assign(5, PhoneSpec{});
  const std::vector<WorkloadSpec> mix = {WorkloadSpec{ToolKind::icmp_ping},
                                         WorkloadSpec{ToolKind::httping}};
  scenario.assign_workloads(mix);
  for (std::size_t i = 0; i < scenario.phones.size(); ++i) {
    EXPECT_EQ(scenario.phones[i].workload.tool, mix[i % 2].tool);
  }
  EXPECT_THROW(scenario.assign_workloads({}), sim::ContractViolation);
}

TEST(CampaignWorkloads, WorkloadOverridesBeatCampaignDefaults) {
  ScenarioGrid grid;
  grid.emulated_rtts = {10_ms};
  WorkloadSpec overridden;
  overridden.tool = ToolKind::icmp_ping;
  overridden.probe_count = 3;
  overridden.interval = 80_ms;
  grid.workloads = {WorkloadSpec{}, overridden};
  CampaignSpec spec;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 7;
  spec.probe_interval = 200_ms;
  SampleRecorder recorder;
  spec.sinks = recorder.sinks();
  (void)Campaign(spec).run(1);
  ASSERT_EQ(recorder.shards().size(), 2u);
  EXPECT_EQ(recorder.at(0).summary.probes_sent, 7u);  // campaign default
  EXPECT_EQ(recorder.at(1).summary.probes_sent, 3u);  // workload override
}

}  // namespace
}  // namespace acute::testbed
