// Lazy campaign iteration: ScenarioGrid::at(i) must agree with expand()[i]
// element for element, a grid-backed Campaign must be indistinguishable
// from its materialized twin, and the determinism contract (bit-identical
// merged digests for any worker count) must hold on a 10^4-shard grid
// iterated lazily — the memory-bounded mode million-shard sweeps run in.
// The campaign identity is pinned here too: Campaign::shard_hash(i) must be
// CampaignSpec::shard_hash(grid.at(i)) bit for bit, and a grid's
// spec_hash() must see every axis entry while costing O(axes).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report/jsonl_sink.hpp"
#include "report/sink.hpp"
#include "campaign_testing.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using phone::RadioKind;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name) : path("lazy_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Field-for-field scenario equality over everything the grid axes set
/// (plus the seed, which neither path assigns).
void expect_scenarios_equal(const ScenarioSpec& a, const ScenarioSpec& b,
                            std::size_t index) {
  SCOPED_TRACE("scenario index " + std::to_string(index));
  ASSERT_EQ(a.phones.size(), b.phones.size());
  for (std::size_t p = 0; p < a.phones.size(); ++p) {
    EXPECT_EQ(a.phones[p].profile.name, b.phones[p].profile.name);
    EXPECT_EQ(a.phones[p].radio, b.phones[p].radio);
    EXPECT_EQ(a.phones[p].workload.tool, b.phones[p].workload.tool);
    EXPECT_EQ(a.phones[p].workload.probe_count, b.phones[p].workload.probe_count);
    EXPECT_EQ(a.phones[p].workload.interval, b.phones[p].workload.interval);
    EXPECT_EQ(a.phones[p].workload.timeout, b.phones[p].workload.timeout);
  }
  EXPECT_EQ(a.emulated_rtt, b.emulated_rtt);
  EXPECT_EQ(a.congested_phy, b.congested_phy);
  EXPECT_EQ(a.netem_loss, b.netem_loss);
  EXPECT_EQ(a.netem_reorder, b.netem_reorder);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(LazyGrid, AtMatchesExpandElementForElement) {
  // Every axis gets >= 2 entries, so every mixed-radix digit of at()'s
  // index decode is exercised (512 scenarios).
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.radios = {RadioKind::wifi, RadioKind::cellular};
  grid.emulated_rtts = {10_ms, 30_ms};
  grid.cross_traffic = {false, true};
  grid.loss_rates = {0.0, 0.1};
  grid.reorder = {false, true};
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping},
                    WorkloadSpec{ToolKind::httping}};
  const std::vector<ScenarioSpec> expanded = grid.expand();
  ASSERT_EQ(expanded.size(), grid.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    expect_scenarios_equal(grid.at(i), expanded[i], i);
  }
}

TEST(LazyGrid, AtRejectsOutOfRangeAndInvalidAxes) {
  ScenarioGrid grid;
  EXPECT_THROW((void)grid.at(grid.size()), sim::ContractViolation);
  grid.loss_rates = {1.0};
  EXPECT_THROW((void)grid.at(0), sim::ContractViolation);
}

/// A small-but-mixed grid cheap enough to execute in full.
ScenarioGrid small_grid() {
  ScenarioGrid grid;
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {12_ms};
  grid.loss_rates = {0.0, 0.2};
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping},
                    WorkloadSpec{ToolKind::httping}};
  return grid;
}

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.seed = 77;
  spec.probes_per_phone = 6;
  spec.probe_interval = 150_ms;
  spec.probe_timeout = 1_s;
  return spec;
}

void expect_digests_bit_identical(const CampaignReport& a,
                                  const CampaignReport& b) {
  EXPECT_EQ(testing::digest_dump(a), testing::digest_dump(b));
}

TEST(LazyCampaign, GridBackedRunEqualsMaterializedRun) {
  CampaignSpec lazy = small_spec();
  lazy.grid = small_grid();
  CampaignSpec materialized = small_spec();
  materialized.scenarios = small_grid().expand();

  testing::SampleRecorder grid_shards, vector_shards;
  lazy.sinks = grid_shards.sinks();
  materialized.sinks = vector_shards.sinks();
  const CampaignReport from_grid = Campaign(lazy).run(2);
  const CampaignReport from_vector = Campaign(materialized).run(2);
  ASSERT_EQ(grid_shards.shards().size(), vector_shards.shards().size());
  for (const auto& [i, shard] : grid_shards.shards()) {
    EXPECT_EQ(shard.summary.info.shard_seed,
              vector_shards.at(i).summary.info.shard_seed);
    EXPECT_EQ(shard.summary.events_fired,
              vector_shards.at(i).summary.events_fired);
  }
  expect_digests_bit_identical(from_grid, from_vector);
}

TEST(LazyCampaign, RejectsBothScenariosAndGrid) {
  CampaignSpec spec = small_spec();
  spec.grid = small_grid();
  spec.scenarios = small_grid().expand();
  EXPECT_THROW(Campaign{spec}, sim::ContractViolation);
}

TEST(LazyCampaign, ConstructorValidatesTheGrid) {
  // Validated once, at construction, not as the first shard runs.
  CampaignSpec lossy = small_spec();
  lossy.grid = small_grid();
  lossy.grid->loss_rates = {1.0};
  EXPECT_THROW(Campaign{lossy}, sim::ContractViolation);
  CampaignSpec no_phones = small_spec();
  no_phones.grid = small_grid();
  no_phones.grid->phone_counts = {0};
  EXPECT_THROW(Campaign{no_phones}, sim::ContractViolation);
}

TEST(LazyCampaign, LazyGridResumesThroughCheckpoints) {
  TempFile checkpoint("grid_resume");
  const CampaignReport uninterrupted = [&] {
    CampaignSpec spec = small_spec();
    spec.grid = small_grid();
    return Campaign(spec).run(1);
  }();

  CampaignSpec killed = small_spec();
  killed.grid = small_grid();
  killed.checkpoint_path = checkpoint.path;
  killed.max_shards = 3;
  EXPECT_EQ(Campaign(killed).run(2).completed_shards(), 3u);

  CampaignSpec resumed = small_spec();
  resumed.grid = small_grid();
  resumed.checkpoint_path = checkpoint.path;
  const CampaignReport report = Campaign(resumed).run(2);
  EXPECT_EQ(report.completed_shards(), report.shard_count());
  expect_digests_bit_identical(report, uninterrupted);
}

/// The at-scale determinism pin: 10^4 lazily-iterated shards, merged
/// digests bit-identical between 1 and 8 workers. Shards are minimal (one
/// phone, one probe, short settle) so the whole test stays a few seconds.
CampaignSpec ten_thousand_shard_spec() {
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(sim::Duration::millis(2 + i));
  }
  grid.loss_rates.clear();
  for (int i = 0; i < 100; ++i) grid.loss_rates.push_back(i * 0.003);
  grid.reorder = {false, true};
  CampaignSpec spec;
  spec.seed = 2016;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = 50_ms;
  spec.probe_timeout = 400_ms;
  spec.settle = 50_ms;
  return spec;
}

TEST(LazyCampaign, TenThousandShardsBitIdenticalAcrossWorkerCounts) {
  Campaign serial(ten_thousand_shard_spec());
  ASSERT_EQ(serial.scenario_count(), 10000u);
  const CampaignReport one = serial.run(1);
  const CampaignReport eight = Campaign(ten_thousand_shard_spec()).run(8);
  ASSERT_EQ(one.completed_shards(), eight.completed_shards());
  EXPECT_GT(one.total_lost(), 0u);  // the loss axis actually bites
  expect_digests_bit_identical(one, eight);
}

TEST(Campaign, NeverSpawnsMoreWorkersThanPendingShards) {
  // Observable through the sink factory: it runs on the executing worker's
  // thread, so the set of distinct thread ids bounds the pool size. With 2
  // pending shards and 8 requested workers, at most 2 threads may execute.
  CampaignSpec spec = small_spec();
  ScenarioGrid grid = small_grid();
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping}};
  grid.profiles = {PhoneProfile::nexus5()};
  spec.grid = grid;  // 2 shards (loss axis)
  std::mutex mutex;
  std::set<std::thread::id> threads;
  spec.sinks = [&mutex, &threads](const report::ShardInfo&) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
    }
    return std::vector<std::unique_ptr<report::ResultSink>>{};
  };
  const CampaignReport report = Campaign(spec).run(8);
  EXPECT_EQ(report.completed_shards(), 2u);
  EXPECT_LE(threads.size(), 2u);
}

TEST(LazyCampaign, JsonlExportIsByteIdenticalAcrossWorkerCounts) {
  // The reorder buffer's contract: same campaign, any worker count, same
  // bytes on disk — not merely the same record set.
  auto run_with = [](std::size_t workers, const std::string& path) {
    CampaignSpec spec = small_spec();
    spec.grid = small_grid();
    auto writer = std::make_shared<report::JsonlWriter>(path);
    spec.sinks = report::jsonl_sink_factory(writer);
    (void)Campaign(spec).run(workers);
  };
  TempFile serial("jsonl_1worker");
  TempFile threaded("jsonl_8worker");
  run_with(1, serial.path);
  run_with(8, threaded.path);
  const std::string serial_bytes = read_file(serial.path);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, read_file(threaded.path));
}

// ------------------------------------------------------ campaign identity

WorkloadSpec overridden_httping() {
  WorkloadSpec workload{ToolKind::httping};
  workload.passive = passive::PassiveVantage::both;
  workload.probe_count = 3;
  workload.interval = 70_ms;
  workload.timeout = 600_ms;
  return workload;
}

/// Nexus 5 with one behavior field changed and its name kept.
PhoneProfile edited_nexus5() {
  PhoneProfile profile = PhoneProfile::nexus5();
  profile.cpu_scale *= 1.5;
  return profile;
}

/// Grids that between them cover phone counts {1, 3}, an edited profile
/// under an unchanged name, both radios, cross traffic, loss and reorder,
/// and workloads with passive = both and overridden schedules.
std::vector<ScenarioGrid> identity_grids() {
  std::vector<ScenarioGrid> grids(5);
  grids[0].phone_counts = {1, 3};
  grids[0].profiles = {PhoneProfile::nexus5(), edited_nexus5()};
  grids[0].radios = {RadioKind::wifi, RadioKind::cellular};
  grids[0].workloads = {WorkloadSpec{ToolKind::icmp_ping},
                        overridden_httping()};
  grids[1].emulated_rtts = {10_ms, 30_ms};
  grids[1].cross_traffic = {false, true};
  grids[1].loss_rates = {0.0, 0.1};
  grids[1].reorder = {false, true};
  grids[2].phone_counts = {3};
  grids[2].profiles = {PhoneProfile::nexus4()};
  grids[2].radios = {RadioKind::cellular};
  grids[2].workloads = {overridden_httping(), WorkloadSpec{ToolKind::acutemon},
                        WorkloadSpec{ToolKind::java_ping}};
  grids[2].cross_traffic = {true};
  // Every axis with two entries (256 shards, 16 phones-prefix tuples).
  grids[3] = grids[0];
  grids[3].emulated_rtts = {10_ms, 30_ms};
  grids[3].cross_traffic = {true, false};
  grids[3].loss_rates = {0.2, 0.0};
  grids[3].reorder = {true, false};
  grids[4].phone_counts = {3, 1};
  grids[4].profiles = {edited_nexus5(), PhoneProfile::nexus4(),
                       PhoneProfile::nexus5()};
  grids[4].workloads = {overridden_httping()};
  return grids;
}

TEST(CampaignIdentity, GridShardHashEqualsTheMaterializedScenarioHash) {
  for (const ScenarioGrid& grid : identity_grids()) {
    CampaignSpec spec = small_spec();
    spec.grid = grid;
    const Campaign campaign(spec);
    ASSERT_EQ(campaign.scenario_count(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_EQ(campaign.shard_hash(i), spec.shard_hash(grid.at(i)))
          << "grid of " << grid.size() << " shards, index " << i;
    }
  }
}

TEST(CampaignIdentity, ListShardHashEqualsTheScenarioHash) {
  CampaignSpec spec = small_spec();
  spec.scenarios = identity_grids()[3].expand();
  ScenarioSpec mixed;
  mixed.phones.assign(4, PhoneSpec{});
  mixed.phones[1].profile = edited_nexus5();
  mixed.phones[2].radio = RadioKind::cellular;
  mixed.phones[3].label = "handset-3";
  mixed.assign_workloads({WorkloadSpec{ToolKind::acutemon},
                          overridden_httping()});
  mixed.sniffer_count = 1;
  spec.scenarios.push_back(mixed);
  const Campaign campaign(spec);
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    ASSERT_EQ(campaign.shard_hash(i), spec.shard_hash(spec.scenarios[i]))
        << "index " << i;
  }
}

TEST(CampaignIdentity, ShardHashRejectsAnOutOfRangeIndex) {
  CampaignSpec grid_spec = small_spec();
  grid_spec.grid = small_grid();
  const Campaign grid_campaign(grid_spec);
  EXPECT_THROW((void)grid_campaign.shard_hash(grid_campaign.scenario_count()),
               sim::ContractViolation);
  CampaignSpec list_spec = small_spec();
  list_spec.scenarios = small_grid().expand();
  const Campaign list_campaign(list_spec);
  EXPECT_THROW((void)list_campaign.shard_hash(list_campaign.scenario_count()),
               sim::ContractViolation);
}

TEST(CampaignIdentity, ListSpecHashKeepsItsBits) {
  // An explicit list still hashes every scenario's shard hash: this is the
  // value the library gave before grids hashed their axes instead.
  CampaignSpec spec = small_spec();
  spec.scenarios = small_grid().expand();
  EXPECT_EQ(spec.spec_hash(), 0x458bb806493d5daeull);
}

TEST(CampaignIdentity, EveryGridEditChangesTheSpecHash) {
  CampaignSpec base = small_spec();
  base.grid = small_grid();
  base.grid->emulated_rtts = {10_ms, 30_ms};
  base.grid->loss_rates = {0.0, 0.1};
  base.grid->workloads = {WorkloadSpec{ToolKind::icmp_ping},
                          overridden_httping()};
  std::vector<std::pair<std::string, CampaignSpec>> edits;
  const auto edit = [&](const std::string& name, auto&& change) {
    CampaignSpec spec = base;
    change(spec);
    edits.emplace_back(name, std::move(spec));
  };
  edit("one axis value", [](CampaignSpec& s) {
    s.grid->emulated_rtts[1] = 31_ms;
  });
  edit("two swapped RTTs", [](CampaignSpec& s) {
    s.grid->emulated_rtts = {30_ms, 10_ms};
  });
  edit("one extra loss step", [](CampaignSpec& s) {
    s.grid->loss_rates.push_back(0.2);
  });
  edit("one profile field", [](CampaignSpec& s) {
    s.grid->profiles[0].psm_timeout += 1_ms;
  });
  edit("one workload field", [](CampaignSpec& s) {
    s.grid->workloads[1].probe_count += 1;
  });
  edit("one probe-schedule field", [](CampaignSpec& s) {
    s.probe_interval += 1_ms;
  });
  edit("settle", [](CampaignSpec& s) { s.settle += 1_ms; });
  edit("cross traffic", [](CampaignSpec& s) {
    s.grid->cross_traffic = {true};
  });
  edit("reorder axis length", [](CampaignSpec& s) {
    s.grid->reorder = {false, false};
  });
  // Two grids with the same shard count, the same scenario 0 and the same
  // entry bits in the same order (false and 0.0 are both zero words), a
  // replicate entry moved between adjacent axes: only the axis lengths
  // tell them apart.
  edit("a replicate on the loss axis", [](CampaignSpec& s) {
    s.grid->loss_rates = {0.0, 0.0};
  });
  edit("a replicate on the cross-traffic axis", [](CampaignSpec& s) {
    s.grid->cross_traffic = {false, false};
    s.grid->loss_rates = {0.0};
  });
  edit("radio", [](CampaignSpec& s) {
    s.grid->radios = {RadioKind::cellular};
  });
  edit("phone count", [](CampaignSpec& s) { s.grid->phone_counts = {2}; });
  std::set<std::uint64_t> hashes{base.spec_hash()};
  for (const auto& [name, spec] : edits) {
    EXPECT_TRUE(hashes.insert(spec.spec_hash()).second)
        << name << " left the spec hash unchanged (or collided)";
  }
  // The seed is the hello's own field, never part of the shape hash.
  CampaignSpec reseeded = base;
  reseeded.seed += 1;
  EXPECT_EQ(reseeded.spec_hash(), base.spec_hash());
}

TEST(CampaignIdentity, ATrillionShardGridHashesAtOnce) {
  // Three axes of 10^4 entries: 10^12 shards, which a per-scenario sweep
  // would take weeks to hash. No CampaignLedger is built — it would hold
  // one slot per shard.
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  grid.loss_rates.clear();
  grid.cross_traffic.clear();
  for (int i = 0; i < 10000; ++i) {
    grid.emulated_rtts.push_back(sim::Duration::micros(1000 + i));
    grid.loss_rates.push_back(0.0001 * i);
    grid.cross_traffic.push_back(i % 3 == 0);
  }
  CampaignSpec spec = small_spec();
  spec.grid = grid;
  const auto start = std::chrono::steady_clock::now();
  const Campaign campaign(spec);
  ASSERT_EQ(campaign.scenario_count(), std::size_t{1000000000000});
  const std::uint64_t identity = campaign.spec().spec_hash();
  const std::size_t last = campaign.scenario_count() - 1;
  const std::uint64_t last_hash = campaign.shard_hash(last);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 5.0);
  EXPECT_EQ(last_hash, spec.shard_hash(grid.at(last)));
  EXPECT_NE(last_hash, campaign.shard_hash(0));
  CampaignSpec shifted = spec;
  shifted.grid->loss_rates.back() = 0.5;
  EXPECT_NE(shifted.spec_hash(), identity);
}

}  // namespace
}  // namespace acute::testbed
