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
//   * prefix fold — in that same pass, each record of the leading restored
//     run (indices 0, 1, …, P-1) is folded into the report while it is in
//     memory, so it is parsed once, not again when the frontier reaches
//     it. Exactness rule: record i is folded only when i == P, i.e. when
//     shards 0..i-1 are folded already. A later complete record of a
//     folded shard (index < P: a duplicate) would win under last-wins and
//     may not be the line that was folded, so it voids the fold (fresh
//     totals, P = 0) and every restored shard is folded from the
//     compacted file instead. Nothing else voids it: a record past P
//     (after a hole, or ahead of its turn) is simply left to the
//     frontier, and torn fragments and blank lines never reach the
//     visitor. The folded records are then the winners of shards
//     0..P-1, so the compacted file starts with exactly those P lines;
//   * compact — unless it is one ascending line per shard already, the
//     file is rewritten to that (report::compact_checkpoint's shared
//     last-wins rule), and it is reopened for appending;
//   * classify — each scenario index becomes restored (below P: folded
//     already; past P: read back from the compacted file, whose first P
//     lines are skipped unparsed, when the fold reaches it), pending (this
//     invocation runs it; the first max_shards non-restored indices) or
//     skipped (the capped tail).
// start() then opens the merge frontier over that classification, its
// cursor at P, and the producers submit() each completed shard's record or
// abandon() a failed one. finish() drains the fold and hands back the
// report. The restore's wall time (StageSeconds::restore) includes the
// prefix fold, which the merge time no longer does.
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
  // Restored shards 0..folded_prefix_-1, folded during the restore.
  std::size_t folded_prefix_ = 0;
  std::unique_ptr<report::CheckpointReader> restored_;
  std::unique_ptr<report::CheckpointWriter> checkpoint_;
  std::optional<MergeFrontier> frontier_;
};

}  // namespace acute::testbed
