// Campaign checkpoint/resume: a sweep killed after K of N shards and
// resumed from its checkpoint must produce bit-identical merged workload
// digests to an uninterrupted run — for any worker count (the ISSUE's
// acceptance criterion, exercised at 1 and 8 workers).
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "report/checkpoint.hpp"

#include "report/sink.hpp"
#include "campaign_testing.hpp"
#include "sim/contracts.hpp"
#include "testbed/campaign.hpp"
#include "testbed/campaign_ledger.hpp"

namespace acute::testbed {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name)
      : path("resume_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// 8 shards across profiles / workloads / loss — enough variety that a
/// digest mismatch anywhere shows up in the merge.
CampaignSpec resume_campaign() {
  ScenarioGrid grid;
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {12_ms};
  grid.loss_rates = {0.0, 0.2};
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping},
                    WorkloadSpec{ToolKind::httping}};
  CampaignSpec spec;
  spec.seed = 77;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 6;
  spec.probe_interval = 150_ms;
  spec.probe_timeout = 1_s;
  return spec;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ino_t file_inode(const std::string& path) {
  struct stat info {};
  EXPECT_EQ(::stat(path.c_str(), &info), 0);
  return info.st_ino;
}

void expect_digests_bit_identical(const CampaignReport& a,
                                  const CampaignReport& b) {
  EXPECT_EQ(testing::digest_dump(a), testing::digest_dump(b));
}

void kill_and_resume(std::size_t kill_workers, std::size_t resume_workers) {
  // Ground truth: the same campaign uninterrupted, no checkpoint.
  const CampaignReport uninterrupted = Campaign(resume_campaign()).run(1);

  TempFile checkpoint("kill_" + std::to_string(kill_workers) + "_" +
                      std::to_string(resume_workers));
  // "Kill" after 3 of 8 shards: max_shards caps the invocation.
  CampaignSpec killed = resume_campaign();
  killed.checkpoint_path = checkpoint.path;
  killed.max_shards = 3;
  const CampaignReport partial = Campaign(killed).run(kill_workers);
  EXPECT_EQ(partial.completed_shards(), 3u);
  EXPECT_LT(partial.total_probes(), uninterrupted.total_probes());
  const ino_t killed_inode = file_inode(checkpoint.path);

  // Resume: same spec, no cap. Only the 5 pending shards execute.
  CampaignSpec resumed_spec = resume_campaign();
  resumed_spec.checkpoint_path = checkpoint.path;
  std::size_t executed = 0;
  resumed_spec.sinks = [&executed](const report::ShardInfo&) {
    ++executed;  // single-threaded counting is only safe with 1 worker
    return std::vector<std::unique_ptr<report::ResultSink>>{};
  };
  if (resume_workers > 1) resumed_spec.sinks = nullptr;
  const CampaignReport resumed = Campaign(resumed_spec).run(resume_workers);
  if (resume_workers == 1) EXPECT_EQ(executed, 5u);
  EXPECT_EQ(resumed.completed_shards(), resumed.shard_count());
  // One serial worker appends in ascending order, so the restore found
  // nothing to compact and appended to the same file.
  if (kill_workers == 1) EXPECT_EQ(file_inode(checkpoint.path), killed_inode);

  expect_digests_bit_identical(resumed, uninterrupted);
}

TEST(CampaignResume, KilledSweepResumesBitIdenticallySerial) {
  kill_and_resume(1, 1);
}

TEST(CampaignResume, KilledSweepResumesBitIdenticallyThreaded) {
  kill_and_resume(8, 8);
}

TEST(CampaignResume, FullyCheckpointedRerunExecutesNothing) {
  TempFile checkpoint("norerun");
  CampaignSpec spec = resume_campaign();
  spec.checkpoint_path = checkpoint.path;
  const CampaignReport first = Campaign(spec).run(2);
  EXPECT_EQ(first.completed_shards(), first.shard_count());

  std::size_t executed = 0;
  CampaignSpec again = resume_campaign();
  again.checkpoint_path = checkpoint.path;
  again.sinks = [&executed](const report::ShardInfo&) {
    ++executed;
    return std::vector<std::unique_ptr<report::ResultSink>>{};
  };
  const CampaignReport second = Campaign(again).run(1);
  EXPECT_EQ(executed, 0u);  // every shard restored, none re-executed
  expect_digests_bit_identical(first, second);
}

TEST(CampaignResume, IncrementalInvocationsWalkTheCampaign) {
  // The ops pattern behind max_shards: N small checkpointed invocations
  // eventually complete the sweep, idempotently.
  TempFile checkpoint("incremental");
  const CampaignReport uninterrupted = Campaign(resume_campaign()).run(1);
  for (int tick = 0; tick < 5; ++tick) {
    CampaignSpec spec = resume_campaign();
    spec.checkpoint_path = checkpoint.path;
    spec.max_shards = 2;
    const CampaignReport report = Campaign(spec).run(2);
    const std::size_t expect_done =
        std::min<std::size_t>(2 * (tick + 1), report.shard_count());
    EXPECT_EQ(report.completed_shards(), expect_done);
    if (report.completed_shards() == report.shard_count()) {
      expect_digests_bit_identical(report, uninterrupted);
      return;
    }
  }
  FAIL() << "campaign never completed";
}

TEST(CampaignResume, MismatchedCheckpointIsAContractViolation) {
  // A record of another campaign, or a corrupt complete one, stops the
  // restore before any byte is rewritten — here in a file that needs
  // compaction (a duplicate re-run), so a rewrite would otherwise follow.
  TempFile checkpoint("mismatch");
  CampaignSpec spec = resume_campaign();
  spec.checkpoint_path = checkpoint.path;
  spec.max_shards = 2;
  (void)Campaign(spec).run(1);
  {
    const auto records = report::load_checkpoint(checkpoint.path);
    ASSERT_EQ(records.size(), 2u);
    std::ofstream(checkpoint.path, std::ios::app)
        << report::render_checkpoint_record(records[0]);
  }
  const std::string mismatched = file_bytes(checkpoint.path);

  CampaignSpec other = resume_campaign();
  other.seed = spec.seed + 1;  // different campaign, same checkpoint file
  other.checkpoint_path = checkpoint.path;
  EXPECT_THROW((void)Campaign(other).run(1), sim::ContractViolation);
  EXPECT_EQ(file_bytes(checkpoint.path), mismatched);

  std::ofstream(checkpoint.path, std::ios::app) << "ckpt2 0 not-a-seed 1 end\n";
  const std::string corrupt = file_bytes(checkpoint.path);
  EXPECT_THROW((void)Campaign(spec).run(1), sim::ContractViolation);
  EXPECT_EQ(file_bytes(checkpoint.path), corrupt);
}

TEST(CampaignResume, EditedSpecIsAContractViolation) {
  // Same seed, same scenario count — but the probe schedule changed since
  // the kill. The per-record spec fingerprint must reject the stale shards
  // instead of silently merging 6-probe digests into an 18-probe campaign.
  TempFile checkpoint("edited_spec");
  CampaignSpec spec = resume_campaign();
  spec.checkpoint_path = checkpoint.path;
  spec.max_shards = 2;
  (void)Campaign(spec).run(1);

  CampaignSpec edited = resume_campaign();
  edited.checkpoint_path = checkpoint.path;
  edited.probes_per_phone = spec.probes_per_phone * 3;
  EXPECT_THROW((void)Campaign(edited).run(1), sim::ContractViolation);

  CampaignSpec reshaped = resume_campaign();
  reshaped.checkpoint_path = checkpoint.path;
  reshaped.scenarios[0].phones.push_back(PhoneSpec{});  // different shape
  EXPECT_THROW((void)Campaign(reshaped).run(1), sim::ContractViolation);
}

TEST(CampaignResume, TornCheckpointLineRerunsOnlyThatShard) {
  // A real kill can tear the checkpoint's last line mid-write. The torn
  // shard must simply rerun — and the resumed merge must still be
  // bit-identical to an uninterrupted run.
  TempFile checkpoint("torn");
  CampaignSpec spec = resume_campaign();
  spec.checkpoint_path = checkpoint.path;
  spec.max_shards = 3;
  (void)Campaign(spec).run(1);
  const std::string contents = file_bytes(checkpoint.path);
  {
    std::ofstream out(checkpoint.path, std::ios::trunc);
    out << contents.substr(0, contents.size() - 25);  // tear record 2
  }
  ASSERT_EQ(report::load_checkpoint(checkpoint.path).size(), 2u);

  CampaignSpec resumed_spec = resume_campaign();
  resumed_spec.checkpoint_path = checkpoint.path;
  const CampaignReport resumed = Campaign(resumed_spec).run(1);
  EXPECT_EQ(resumed.completed_shards(), resumed.shard_count());
  expect_digests_bit_identical(resumed, Campaign(resume_campaign()).run(1));
  // The rerun shard re-recorded itself: the healed file now restores all
  // shards (resume's compaction pass dropped the torn fragment entirely).
  EXPECT_EQ(report::load_checkpoint(checkpoint.path).size(),
            resumed.shard_count());
}

/// Fails its shard when the shard finishes, before the checkpoint append.
struct FailingSink : report::ResultSink {
  void probe_completed(const report::ProbeEvent&) override {}
  void shard_finished(const report::ShardSummary& summary) override {
    throw std::runtime_error("shard " +
                             std::to_string(summary.info.scenario_index) +
                             " failed");
  }
};

TEST(CampaignResume, AShardFailureIsRethrownAfterTheSweepAtAnyWorkerCount) {
  // One executor at every worker count: the failing shard is rethrown only
  // after the sweep, so the checkpoint holds every other shard.
  std::string one_worker_bytes;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    TempFile checkpoint("failing_" + std::to_string(workers));
    CampaignSpec spec = resume_campaign();
    spec.checkpoint_path = checkpoint.path;
    spec.sinks = [](const report::ShardInfo& info) {
      std::vector<std::unique_ptr<report::ResultSink>> sinks;
      if (info.scenario_index == 2) {
        sinks.push_back(std::make_unique<FailingSink>());
      }
      return sinks;
    };
    std::string error;
    try {
      (void)Campaign(spec).run(workers);
    } catch (const std::runtime_error& failure) {
      error = failure.what();
    }
    EXPECT_EQ(error, "shard 2 failed");
    report::compact_checkpoint(checkpoint.path);
    const std::vector<report::ShardCheckpoint> records =
        report::load_checkpoint(checkpoint.path);
    EXPECT_EQ(records.size(), spec.scenarios.size() - 1);
    for (const report::ShardCheckpoint& record : records) {
      EXPECT_NE(record.summary.info.scenario_index, 2u);
    }
    if (workers == 1) one_worker_bytes = file_bytes(checkpoint.path);
    EXPECT_EQ(file_bytes(checkpoint.path), one_worker_bytes);
  }
}

std::size_t raw_line_count(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

TEST(CampaignResume, ResumeCompactsTheCheckpointToOneLinePerShard) {
  // A many-times-killed sweep accretes torn fragments (and, with unlucky
  // kills, duplicate records) in its checkpoint. Resume must rewrite the
  // file to one line per completed shard — and keep resuming bit-
  // identically afterwards (resume -> compact -> resume round trip).
  TempFile checkpoint("compact");
  const CampaignReport uninterrupted = Campaign(resume_campaign()).run(1);

  CampaignSpec tick = resume_campaign();
  tick.checkpoint_path = checkpoint.path;
  tick.max_shards = 3;
  (void)Campaign(tick).run(1);

  // Simulate kill debris: a duplicated record and a torn trailing line.
  {
    const auto records = report::load_checkpoint(checkpoint.path);
    ASSERT_EQ(records.size(), 3u);
    std::ofstream out(checkpoint.path, std::ios::app);
    out << report::render_checkpoint_record(records[1]);
    out << "ckpt1 2 99 torn-mid-writ";
  }
  ASSERT_EQ(raw_line_count(checkpoint.path), 5u);

  // Second tick: load compacts (3 unique records survive) before the next
  // 3 shards append.
  (void)Campaign(tick).run(2);
  EXPECT_EQ(raw_line_count(checkpoint.path), 6u);
  EXPECT_EQ(report::load_checkpoint(checkpoint.path).size(), 6u);

  // Final resume completes the sweep; every merged digest bit-identical to
  // the uninterrupted run, and the file is again one line per shard.
  CampaignSpec rest = resume_campaign();
  rest.checkpoint_path = checkpoint.path;
  const CampaignReport resumed = Campaign(rest).run(2);
  EXPECT_EQ(resumed.completed_shards(), resumed.shard_count());
  expect_digests_bit_identical(resumed, uninterrupted);

  // One more resume: nothing pending, the load compacts the finished file
  // to exactly shard_count() lines and restores everything bit-identically.
  const CampaignReport rerun = Campaign(rest).run(1);
  EXPECT_EQ(raw_line_count(checkpoint.path), rerun.shard_count());
  expect_digests_bit_identical(rerun, uninterrupted);
}

TEST(CampaignResume, OnePassRestoreMatchesAnUninterruptedRun) {
  // The ledger folds the checkpoint's leading restored run while it
  // validates it, and the frontier reads back only what lies past a hole
  // or arrived ahead of its turn (or everything, once a duplicate of a
  // folded shard voids the prefix).
  // Every shape must restore the same shards and merge, and compact to,
  // exactly what an uninterrupted single-thread run writes.
  TempFile reference("one_pass_reference");
  CampaignSpec full = resume_campaign();
  full.checkpoint_path = reference.path;
  const CampaignReport uninterrupted = Campaign(full).run(1);
  const std::string reference_bytes = file_bytes(reference.path);

  for (const testing::RestoreCase& c :
       testing::restore_cases(reference_bytes)) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(c.name + ", " + std::to_string(workers) + " workers");
      TempFile checkpoint("one_pass_" + c.name);
      std::ofstream(checkpoint.path, std::ios::binary) << c.bytes;
      CampaignSpec spec = resume_campaign();
      spec.checkpoint_path = checkpoint.path;
      if (c.malformed) {
        const ino_t inode = file_inode(checkpoint.path);
        EXPECT_THROW((void)Campaign(spec).run(workers),
                     sim::ContractViolation);
        EXPECT_EQ(file_bytes(checkpoint.path), c.bytes);
        EXPECT_EQ(file_inode(checkpoint.path), inode);
        continue;
      }
      {
        // restored() as the ledger reports it, on a copy (the ledger
        // compacts the file it restores).
        TempFile copy("one_pass_copy_" + c.name);
        std::ofstream(copy.path, std::ios::binary) << c.bytes;
        CampaignSpec probe = resume_campaign();
        probe.checkpoint_path = copy.path;
        const Campaign campaign(probe);
        const CampaignLedger ledger(campaign);
        EXPECT_EQ(ledger.restored(), c.restored);
        EXPECT_EQ(ledger.pending().size(),
                  campaign.scenario_count() - c.restored);
      }
      const CampaignReport resumed = Campaign(spec).run(workers);
      EXPECT_EQ(resumed.completed_shards(), resumed.shard_count());
      expect_digests_bit_identical(resumed, uninterrupted);
      report::compact_checkpoint(checkpoint.path);
      EXPECT_EQ(file_bytes(checkpoint.path), reference_bytes);
    }
  }
}

}  // namespace
}  // namespace acute::testbed
