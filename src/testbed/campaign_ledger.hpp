// CampaignLedger: the one restore → validate → compact → classify → fold
// sequence of a campaign invocation, shared by Campaign::run (worker
// threads) and fabric::Coordinator::run (worker processes).
//
// Construction does the serial part:
//   * restore — every complete record already at CampaignSpec::
//     checkpoint_path is validated against the campaign (scenario index in
//     range, Rng(S).fork(i) seed, Campaign::shard_hash(i), which for a grid
//     costs O(1) and builds no scenario), one record in memory at a time,
//     inside compaction's first pass;
//   * compact — unless it is one ascending line per shard already, the
//     file is rewritten to that (report::compact_checkpoint's shared
//     last-wins rule), and it is reopened for appending;
//   * classify — each scenario index becomes restored (folded from the
//     compacted file), pending (this invocation runs it; the first
//     max_shards non-restored indices) or skipped (the capped tail).
// start() then opens the merge frontier over that classification, and the
// producers submit() each completed shard's record or abandon() a failed
// one. finish() drains the fold and hands back the report.
//
// The ledger never executes a shard and never writes a record: the caller
// appends to checkpoint() — Campaign::run_shard renders the record it
// built, the coordinator stores a worker's validated line as received —
// and does so before submit(), so a shard is durable before it is merged.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "report/checkpoint.hpp"
#include "testbed/campaign.hpp"
#include "testbed/merge_frontier.hpp"

namespace acute::testbed {

class CampaignLedger {
 public:
  /// Restores, validates, compacts and classifies `campaign`'s shards (see
  /// the file comment). Contract violation when a checkpoint record does
  /// not match the campaign. `campaign` must outlive the ledger.
  explicit CampaignLedger(const Campaign& campaign);

  /// The indices this invocation executes, ascending.
  [[nodiscard]] const std::vector<std::size_t>& pending() const {
    return pending_;
  }

  /// Shards restored from the checkpoint.
  [[nodiscard]] std::size_t restored() const { return restored_count_; }

  /// The append-mode checkpoint writer; nullptr when the campaign does not
  /// checkpoint. Thread-safe.
  [[nodiscard]] report::CheckpointWriter* checkpoint() const {
    return checkpoint_.get();
  }

  /// Contract violation unless `record` belongs to this campaign: index in
  /// range, shard seed and spec hash as the campaign derives them
  /// (Campaign::shard_hash, no scenario built). `source` names the record's
  /// origin in the message. Runs on restore and on every fabric shard_done.
  void validate(const report::ShardCheckpoint& record, const char* source);

  /// Opens the in-order fold; `park_bound` as in MergeFrontier (0 never
  /// waits). Call once, before the first submit()/abandon().
  void start(std::size_t park_bound = 0);

  /// Folds a completed pending shard (see MergeFrontier::submit).
  void submit(std::size_t index, report::ShardCheckpoint&& record) {
    frontier_->submit(index, std::move(record));
  }

  /// Releases a failed pending shard's slot (see MergeFrontier::abandon).
  void abandon(std::size_t index) { frontier_->abandon(index); }

  /// Drains the fold once the producers stop and returns the report
  /// (totals, restore and merge seconds, frontier high water). With
  /// `compact` the checkpoint is then closed and compacted to one ascending
  /// line per shard, unless every append kept it so (see
  /// report::CheckpointWriter::canonical). Rethrows an earlier fold
  /// failure.
  [[nodiscard]] CampaignReport finish(bool compact = false);

 private:
  const Campaign& campaign_;
  CampaignReport report_;
  std::vector<MergeFrontier::Slot> slots_;
  std::vector<std::size_t> pending_;
  std::size_t restored_count_ = 0;
  std::unique_ptr<report::CheckpointReader> restored_;
  std::unique_ptr<report::CheckpointWriter> checkpoint_;
  std::optional<MergeFrontier> frontier_;
};

}  // namespace acute::testbed
