// Campaign engine: grid expansion, deterministic per-shard seeding, and —
// the load-bearing property — bit-identical merged results regardless of
// how many workers execute the shards.
#include <gtest/gtest.h>

#include <set>

#include "campaign_testing.hpp"
#include "sim/contracts.hpp"
#include "stats/summary.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using phone::RadioKind;
using testing::digest_dump;
using testing::RecordedShard;
using testing::SampleRecorder;

TEST(ScenarioGrid, ExpandsTheCrossProductInFixedOrder) {
  ScenarioGrid grid;
  grid.phone_counts = {1, 3};
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {10_ms, 30_ms};
  grid.cross_traffic = {false, true};
  ASSERT_EQ(grid.size(), 16u);
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 16u);

  // Outer axis: phone count; innermost: cross traffic.
  EXPECT_EQ(scenarios.front().phones.size(), 1u);
  EXPECT_EQ(scenarios.back().phones.size(), 3u);
  EXPECT_EQ(scenarios[0].emulated_rtt, 10_ms);
  EXPECT_FALSE(scenarios[0].congested_phy);
  EXPECT_TRUE(scenarios[1].congested_phy);
  EXPECT_EQ(scenarios[1].emulated_rtt, 10_ms);
  EXPECT_EQ(scenarios[2].emulated_rtt, 30_ms);
  EXPECT_EQ(scenarios[0].phones[0].profile.name, PhoneProfile::nexus5().name);
  EXPECT_EQ(scenarios[4].phones[0].profile.name, PhoneProfile::nexus4().name);
  // Every phone of a scenario shares profile and radio.
  for (const PhoneSpec& phone : scenarios.back().phones) {
    EXPECT_EQ(phone.profile.name, PhoneProfile::nexus4().name);
    EXPECT_EQ(phone.radio, RadioKind::wifi);
  }
}

TEST(ScenarioGrid, RadioAxisProducesCellularScenarios) {
  ScenarioGrid grid;
  grid.radios = {RadioKind::wifi, RadioKind::cellular};
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].count_radio(RadioKind::cellular), 0u);
  EXPECT_EQ(scenarios[1].count_radio(RadioKind::cellular), 1u);
}

TEST(ScenarioGrid, RejectsEmptyAxes) {
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  EXPECT_THROW((void)grid.expand(), sim::ContractViolation);
}

TEST(ScenarioGrid, LossAndReorderAxesExpandInnermost) {
  ScenarioGrid grid;
  grid.emulated_rtts = {10_ms, 30_ms};
  grid.loss_rates = {0.0, 0.1};
  grid.reorder = {false, true};
  ASSERT_EQ(grid.size(), 8u);
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 8u);
  // Innermost: reorder, then loss, then RTT.
  EXPECT_EQ(scenarios[0].netem_loss, 0.0);
  EXPECT_FALSE(scenarios[0].netem_reorder);
  EXPECT_TRUE(scenarios[1].netem_reorder);
  EXPECT_EQ(scenarios[1].netem_loss, 0.0);
  EXPECT_EQ(scenarios[2].netem_loss, 0.1);
  EXPECT_FALSE(scenarios[2].netem_reorder);
  EXPECT_EQ(scenarios[0].emulated_rtt, 10_ms);
  EXPECT_EQ(scenarios[4].emulated_rtt, 30_ms);
}

TEST(ScenarioGrid, DefaultLossAxesKeepLegacyGridsIdentical) {
  // Adding the loss/reorder axes must not perturb pre-existing grids: the
  // defaults are single lossless entries, so the expansion is unchanged.
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.emulated_rtts = {10_ms, 30_ms};
  grid.cross_traffic = {false, true};
  ASSERT_EQ(grid.size(), 8u);
  for (const ScenarioSpec& scenario : grid.expand()) {
    EXPECT_EQ(scenario.netem_loss, 0.0);
    EXPECT_FALSE(scenario.netem_reorder);
  }
}

TEST(ScenarioGrid, RejectsLossRatesOutsideUnitInterval) {
  ScenarioGrid grid;
  grid.loss_rates = {1.0};
  EXPECT_THROW((void)grid.expand(), sim::ContractViolation);
  grid.loss_rates = {-0.1};
  EXPECT_THROW((void)grid.expand(), sim::ContractViolation);
}

TEST(Campaign, LossyScenariosDropProbesDeterministically) {
  // A heavy netem loss axis must surface as lost probes, and the lossy
  // shard's outcome must stay a pure function of (spec, seed, index).
  ScenarioGrid grid;
  grid.emulated_rtts = {10_ms};
  grid.loss_rates = {0.0, 0.4};
  CampaignSpec spec;
  spec.seed = 11;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 12;
  spec.probe_interval = 150_ms;
  spec.probe_timeout = 2_s;

  SampleRecorder first, second;
  spec.sinks = first.sinks();
  (void)Campaign(spec).run(2);
  spec.sinks = second.sinks();
  (void)Campaign(spec).run(1);
  ASSERT_EQ(first.shards().size(), 2u);
  EXPECT_EQ(first.at(0).summary.probes_lost, 0u);
  EXPECT_GT(first.at(1).summary.probes_lost, 0u);
  EXPECT_EQ(first.at(1).summary.probes_lost, second.at(1).summary.probes_lost);
  EXPECT_EQ(first.merged(&RecordedShard::rtt_ms),
            second.merged(&RecordedShard::rtt_ms));
}

TEST(Campaign, ShardSeedsDependOnlyOnCampaignSeedAndIndex) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t seed = Campaign::shard_seed(42, i);
    EXPECT_EQ(seed, Campaign::shard_seed(42, i));  // stable
    seeds.insert(seed);
  }
  EXPECT_EQ(seeds.size(), 64u);                      // distinct per shard
  EXPECT_NE(Campaign::shard_seed(42, 0), Campaign::shard_seed(43, 0));
}

CampaignSpec small_campaign() {
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.emulated_rtts = {10_ms, 25_ms};
  CampaignSpec spec;
  spec.seed = 7;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 6;
  spec.probe_interval = 150_ms;
  return spec;
}

TEST(Campaign, MergedResultsAreBitIdenticalAcrossWorkerCounts) {
  // The acceptance criterion of the sharding design: same campaign seed =>
  // byte-identical merged stats with 1 worker and N workers. Exact double
  // equality is intentional — any thread-count dependence must fail loudly.
  SampleRecorder serial, threaded;
  CampaignSpec spec = small_campaign();
  spec.sinks = serial.sinks();
  const CampaignReport serial_report = Campaign(spec).run(1);
  spec.sinks = threaded.sinks();
  const CampaignReport threaded_report = Campaign(spec).run(3);

  ASSERT_EQ(serial.shards().size(), threaded.shards().size());
  for (const auto& [i, shard] : serial.shards()) {
    const report::ShardSummary& other = threaded.at(i).summary;
    EXPECT_EQ(shard.summary.info.shard_seed, other.info.shard_seed);
    EXPECT_EQ(shard.summary.probes_sent, other.probes_sent);
    EXPECT_EQ(shard.summary.events_fired, other.events_fired);
  }
  EXPECT_EQ(serial.merged(&RecordedShard::rtt_ms),
            threaded.merged(&RecordedShard::rtt_ms));
  EXPECT_EQ(serial.merged(&RecordedShard::du_ms),
            threaded.merged(&RecordedShard::du_ms));
  EXPECT_EQ(serial.merged(&RecordedShard::dn_ms),
            threaded.merged(&RecordedShard::dn_ms));
  EXPECT_EQ(digest_dump(serial_report), digest_dump(threaded_report));
}

TEST(Campaign, ReportAggregatesAcrossShards) {
  CampaignSpec spec = small_campaign();
  spec.scenarios.resize(2);
  SampleRecorder recorder;
  spec.sinks = recorder.sinks();
  CampaignReport report = Campaign(spec).run(2);
  ASSERT_EQ(report.shard_count(), 2u);
  // 2 scenarios x (1 and 2 phones... resize kept indices 0,1: 1-phone each
  // at 10 and 25 ms) x 6 probes.
  EXPECT_EQ(report.total_probes(), 12u);
  EXPECT_EQ(report.total_lost(), 0u);
  EXPECT_EQ(report.rtt_digest().count(), 12u);
  EXPECT_GT(report.total_frames(), 0u);
  EXPECT_GT(report.total_events(), 0u);
  EXPECT_GT(report.total_sim_seconds(), 0.0);
  // The 25 ms shard's median user RTT must exceed the 10 ms shard's.
  EXPECT_GT(stats::Summary(recorder.at(1).rtt_ms).median(),
            stats::Summary(recorder.at(0).rtt_ms).median());
}

TEST(Campaign, RunsMixedRadioScenarios) {
  ScenarioSpec mixed;
  mixed.phones = {PhoneSpec{PhoneProfile::nexus5(), "", RadioKind::wifi},
                  PhoneSpec{PhoneProfile::nexus4(), "", RadioKind::cellular}};
  mixed.emulated_rtt = 15_ms;
  CampaignSpec spec;
  spec.scenarios = {mixed};
  spec.probes_per_phone = 5;
  spec.probe_interval = 400_ms;
  SampleRecorder recorder;
  spec.sinks = recorder.sinks();
  (void)Campaign(spec).run(1);
  ASSERT_EQ(recorder.shards().size(), 1u);
  const RecordedShard& shard = recorder.at(0);
  EXPECT_EQ(shard.summary.probes_sent, 10u);
  EXPECT_EQ(shard.summary.probes_lost, 0u);
  // Only the WiFi phone produces fully-stamped layer samples...
  EXPECT_LE(shard.du_ms.size(), 5u);
  EXPECT_GT(shard.du_ms.size(), 0u);
  // ...but both phones' probes report RTTs, and the cellular ones pay the
  // core-network RTT (>= 50 ms) on top of the emulated path.
  EXPECT_EQ(shard.rtt_ms.size(), 10u);
  const auto& rtts = shard.rtt_ms;
  const std::vector<double> wifi_rtts(rtts.begin(), rtts.begin() + 5);
  const std::vector<double> cell_rtts(rtts.begin() + 5, rtts.end());
  const double wifi_median = stats::Summary(wifi_rtts).median();
  const double cell_median = stats::Summary(cell_rtts).median();
  EXPECT_LT(wifi_median, 40.0);
  EXPECT_GT(cell_median, 60.0);
}

TEST(Campaign, RejectsEmptyOrInvalidSpecs) {
  CampaignSpec empty;
  EXPECT_THROW(Campaign{empty}, sim::ContractViolation);
  CampaignSpec bad = small_campaign();
  bad.probes_per_phone = 0;
  EXPECT_THROW(Campaign{bad}, sim::ContractViolation);
}

}  // namespace
}  // namespace acute::testbed
