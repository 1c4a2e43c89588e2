#include "testbed/merge_frontier.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::testbed {

using sim::expects;

MergeFrontier::MergeFrontier(std::vector<Slot> slots, Feed feed,
                             CampaignReport::FoldedTotals& totals,
                             std::size_t park_bound,
                             std::size_t folded_prefix)
    : slots_(std::move(slots)),
      feed_(std::move(feed)),
      totals_(totals),
      park_bound_(park_bound),
      cursor_(folded_prefix) {
  expects(folded_prefix <= slots_.size() &&
              std::none_of(slots_.begin(), slots_.begin() + folded_prefix,
                           [](Slot slot) { return slot == Slot::fresh; }),
          "MergeFrontier: a pending shard inside the folded prefix");
  // Fold any restored/skipped run at the cursor right away: the cursor must
  // always rest on a fresh slot (or the end), or a resumed tick's fresh
  // results would all park behind a restored run no submit can match. The
  // restore folded the checkpoint's leading run already, so this reaches
  // the feed only for restored shards that lie past a hole.
  std::unique_lock<std::mutex> lock(mu_);
  fold_ready(lock);
}

void MergeFrontier::submit(std::size_t index,
                           report::ShardCheckpoint&& record) {
  std::unique_lock<std::mutex> lock(mu_);
  expects(index < slots_.size() && slots_[index] == Slot::fresh,
          "MergeFrontier::submit on a non-pending slot");
  // The shard at the cursor never waits: parking it is what lets the
  // folder move on.
  room_.wait(lock, [&] {
    return !folding_ || park_bound_ == 0 || held_.size() < park_bound_ ||
           index == cursor_ || fold_error_ != nullptr;
  });
  if (fold_error_ != nullptr) return;  // finalize() reports the failure
  held_.emplace(index, std::move(record));
  high_water_ = std::max(high_water_, held_.size());
  if (!folding_) fold_ready(lock);
}

void MergeFrontier::abandon(std::size_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  expects(index < slots_.size() && slots_[index] == Slot::fresh,
          "MergeFrontier::abandon on a non-pending slot");
  if (fold_error_ != nullptr) return;
  slots_[index] = Slot::skipped;
  if (!folding_) fold_ready(lock);
}

void MergeFrontier::finalize() {
  std::unique_lock<std::mutex> lock(mu_);
  room_.wait(lock, [&] { return !folding_; });
  if (fold_error_ != nullptr) std::rethrow_exception(fold_error_);
  fold_ready(lock);
  expects(cursor_ == slots_.size() && held_.empty(),
          "MergeFrontier::finalize with unfolded shards");
}

// The fold loop, entered with `lock` held, no fold running and no earlier
// fold failed: the caller is the folder until the cursor rests on a shard
// nobody has delivered.
void MergeFrontier::fold_ready(std::unique_lock<std::mutex>& lock) {
  folding_ = true;
  try {
    while (true) {
      // Under the lock: advance the cursor over the ready run, moving its
      // fresh results out of held_. Slots in [begin, cursor_) are settled,
      // so nobody writes them while the unlocked fold below reads them.
      const std::size_t begin = cursor_;
      while (cursor_ < slots_.size()) {
        if (slots_[cursor_] == Slot::fresh) {
          const auto it = held_.find(cursor_);
          if (it == held_.end()) break;  // a producer still owns this index
          ready_.push_back(std::move(it->second));
          held_.erase(it);
        }
        ++cursor_;
      }
      const std::size_t end = cursor_;
      if (begin == end) break;
      if (!ready_.empty()) room_.notify_all();

      lock.unlock();
      std::size_t next = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if (slots_[i] == Slot::restored) {
          fold(feed_(i));
        } else if (slots_[i] == Slot::fresh) {
          fold(std::move(ready_[next++]));
        }
      }
      ready_.clear();
      lock.lock();
    }
  } catch (...) {
    ready_.clear();
    if (!lock.owns_lock()) lock.lock();
    fold_error_ = std::current_exception();
    folding_ = false;
    room_.notify_all();
    throw;
  }
  folding_ = false;
  room_.notify_all();
}

void fold_record(CampaignReport::FoldedTotals& totals,
                 report::ShardCheckpoint&& record) {
  const report::ShardSummary& summary = record.summary;
  ++totals.completed;
  totals.probes += summary.probes_sent;
  totals.lost += summary.probes_lost;
  totals.frames += summary.frames_on_air;
  totals.events += summary.events_fired;
  totals.sim_seconds += summary.sim_seconds;
  totals.workloads.fold_shard(std::move(record.digests));
}

void MergeFrontier::fold(report::ShardCheckpoint&& record) {
  const auto start = std::chrono::steady_clock::now();
  fold_record(totals_, std::move(record));
  fold_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
}

}  // namespace acute::testbed
