#include "testbed/campaign_ledger.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::testbed {

using sim::expects;

CampaignLedger::CampaignLedger(const Campaign& campaign)
    : campaign_(campaign) {
  const CampaignSpec& spec = campaign_.spec();
  const std::size_t shard_count = campaign_.scenario_count();
  slots_.assign(shard_count, MergeFrontier::Slot::skipped);

  // Restore: one pass over the file validates and classifies every record
  // on disk (streaming, one record in memory) before any byte is
  // rewritten; compaction then drops torn fragments and duplicate re-runs
  // (so a many-times-resumed sweep's checkpoint stays O(completed shards))
  // unless the file is one ascending line per shard already. The same pass
  // folds the leading restored run 0..P-1 while each record is in memory,
  // so those records are parsed once; the frontier's feed re-reads only
  // restored records past the first hole.
  if (!spec.checkpoint_path.empty()) {
    const auto restore_start = std::chrono::steady_clock::now();
    bool prefix_exact = true;
    const report::CompactionResult compacted = report::compact_checkpoint(
        spec.checkpoint_path, [&](report::ShardCheckpoint& record) {
          validate(record, "checkpoint");
          const std::size_t index = record.summary.info.scenario_index;
          slots_[index] = MergeFrontier::Slot::restored;
          // Exactness: a later record of a folded shard wins under
          // last-wins, and it may not be the line that was folded, so the
          // fold starts over in the frontier, from the compacted file.
          // Torn fragments never reach the visitor.
          if (prefix_exact && index < folded_prefix_) {
            prefix_exact = false;
            report_.frontier = {};
            folded_prefix_ = 0;
          }
          if (prefix_exact && index == folded_prefix_) {
            fold_record(report_.frontier, std::move(record));
            ++folded_prefix_;
          }
        });
    restored_count_ = compacted.records;
    // Shards 0..P-1 are restored and their folded records won, so the
    // compacted file starts with the folded lines: the feed skips them.
    if (restored_count_ > folded_prefix_) {
      restored_ = std::make_unique<report::CheckpointReader>(
          spec.checkpoint_path, folded_prefix_);
    }
    checkpoint_ = std::make_unique<report::CheckpointWriter>(
        spec.checkpoint_path, compacted);
    report_.stage.restore = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                restore_start)
                                .count();
  }
  report_.frontier.shard_count = shard_count;

  // Classify: the scenario-order prefix of the non-restored shards runs
  // (capped by max_shards, so resumes walk the campaign front to back).
  pending_.reserve(std::min<std::size_t>(
      shard_count, spec.max_shards > 0 ? spec.max_shards : shard_count));
  for (std::size_t i = 0; i < shard_count; ++i) {
    if (slots_[i] == MergeFrontier::Slot::restored) continue;
    if (spec.max_shards > 0 && pending_.size() == spec.max_shards) break;
    slots_[i] = MergeFrontier::Slot::fresh;
    pending_.push_back(i);
  }
}

void CampaignLedger::validate(const report::ShardCheckpoint& record,
                              const char* source) {
  const auto check = [source](bool ok, const char* why) {
    if (!ok) {
      const std::string message = std::string(source) +
                                  " does not match this campaign (" + why +
                                  ")";
      expects(false, message.c_str());
    }
  };
  const std::size_t index = record.summary.info.scenario_index;
  check(index < campaign_.scenario_count(), "shard out of range");
  check(record.summary.info.shard_seed ==
            Campaign::shard_seed(campaign_.spec().seed, index),
        "seed mismatch");
  check(record.spec_hash == campaign_.shard_hash(index),
        "spec hash mismatch: spec edited since the record was written");
}

void CampaignLedger::start(std::size_t park_bound) {
  expects(!frontier_.has_value(), "CampaignLedger::start called twice");
  auto feed = [reader = restored_.get()](std::size_t expected_index) {
    report::ShardCheckpoint record;
    expects(reader != nullptr && reader->next(record),
            "campaign ledger: compacted checkpoint exhausted before all "
            "restored shards were folded");
    expects(record.summary.info.scenario_index == expected_index,
            "campaign ledger: compacted checkpoint out of order");
    return record;
  };
  frontier_.emplace(std::move(slots_), std::move(feed), report_.frontier,
                    park_bound, folded_prefix_);
}

CampaignReport CampaignLedger::finish(bool compact) {
  frontier_->finalize();
  report_.stage.merge = frontier_->fold_seconds();
  report_.frontier.high_water = frontier_->high_water();
  if (compact && checkpoint_ != nullptr) {
    // Appends that kept the file canonical left nothing to compact.
    const bool canonical = checkpoint_->canonical();
    const std::string path = checkpoint_->path();
    checkpoint_.reset();  // flush before the compaction rewrite
    if (!canonical) report::compact_checkpoint(path);
  }
  return std::move(report_);
}

}  // namespace acute::testbed
