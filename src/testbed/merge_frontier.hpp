// The merge frontier: the in-order fold that gives campaigns O(workers)
// report memory — and the fabric coordinator bit-identical merges.
//
// An in-order fold over scenario indices, same shape as the JSONL sink's
// reorder window. A cursor sweeps 0..N-1; each index is folded into the
// campaign-level FoldedTotals the moment every lower index has folded, then
// its digests are freed. Shards that complete ahead of the cursor wait in a
// held map — bounded in practice by the producer's ascending claim/lease
// order to O(producers × batch), the same skew bound as the JSONL window —
// so peak digest retention is O(producers), not O(shards).
//
// Order proof: the cursor visits indices strictly ascending and folds
// exactly the completed shards (fresh submissions, checkpoint-restored
// records, nothing for skipped/abandoned ones), so the fold sequence is the
// ascending scenario order for any producer count and across kill/resume.
// A resume's leading restored run 0..P-1 is folded by the restore itself,
// in the same order and through the same fold_record(), and the cursor
// starts at P, so the sequence is the same —
// bit-identical digests and double sums, pinned by
// tests/golden/mixed_workloads.digests. That holds whether the producers
// are Campaign::run's worker threads or fabric worker *processes* streaming
// ckpt2 records to a coordinator: both submit the same
// report::ShardCheckpoint, and the frontier never sees the difference.
//
// One folder at a time, outside the lock. submit()/abandon() only park
// their result under the mutex. If no fold is running, the caller becomes
// the *folder*: it repeatedly moves the contiguous run of ready results at
// the cursor out of the held map (under the lock), folds that run with the
// lock released, and relocks, until nothing at the cursor is ready. Every
// other producer parks and returns at once while a fold runs, so a long
// fold never stalls the pool. Only the folder advances the cursor, calls
// `feed` and writes the totals, and the mutex hand-off between successive
// folders orders their writes, so the fold order stays strictly ascending.
//
// Bounded parking: a producer can outrun the single folder, so a submitter
// waits on a condition variable while *another* thread is folding and the
// held map has reached the park bound (Campaign::run derives it as
// 2 × workers × claim batch; 0 means unbounded). It resumes as soon as the
// folder drains its next run. A submitter never waits for a lower index
// that is still missing — only for an active folder, which always finishes
// its run — so the frontier cannot deadlock against the JSONL reorder
// window (both drain in the same ascending order). If a fold throws, the
// folder rethrows to its caller, the frontier stops folding, waiting
// submitters wake, and finalize() rethrows the same failure.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "report/checkpoint.hpp"
#include "testbed/campaign.hpp"

namespace acute::testbed {

/// The one fold step of a campaign: `record`'s counters in ascending
/// scenario order (so double sums are the same bits for any producer
/// count), then the consuming digest merge that frees the shard's buffers.
/// MergeFrontier folds every shard through it, and so does the restore of a
/// checkpoint's leading run (CampaignLedger).
void fold_record(CampaignReport::FoldedTotals& totals,
                 report::ShardCheckpoint&& record);

/// See the file comment. Thread-safe; a reference to the FoldedTotals the
/// fold writes into must outlive the frontier.
class MergeFrontier {
 public:
  /// How the cursor treats each scenario index.
  enum class Slot : unsigned char {
    skipped,   ///< will not complete this run (max_shards cap / abandoned)
    restored,  ///< fed from the compacted checkpoint, in file order
    fresh,     ///< a pending shard; a producer will submit() or abandon() it
  };
  /// Returns the restored record for a scenario index (see the ctor).
  using Feed = std::function<report::ShardCheckpoint(std::size_t)>;

  /// `feed` returns the next restored shard from the (ascending, unique)
  /// compacted checkpoint; called exactly once per `restored` slot at or
  /// past `folded_prefix`, in ascending index order, by the active folder
  /// only (never concurrently, outside the frontier lock). `park_bound` caps
  /// the held map while another thread folds (see the file comment); 0
  /// never waits. The cursor starts at `folded_prefix`: indices below it
  /// are restored shards the caller already folded into `totals` with
  /// fold_record(), in ascending order (the ledger does so while it
  /// validates the checkpoint), so none of them may be fresh.
  MergeFrontier(std::vector<Slot> slots, Feed feed,
                CampaignReport::FoldedTotals& totals,
                std::size_t park_bound = 0, std::size_t folded_prefix = 0);

  /// Parks a freshly-completed shard, then folds every ready shard if no
  /// other thread is folding. Waits only while another thread folds and
  /// the park bound is reached.
  void submit(std::size_t index, report::ShardCheckpoint&& record);

  /// Releases a failed shard's slot so the fold cannot stall on it (the
  /// failure itself is the caller's to rethrow/re-lease).
  void abandon(std::size_t index);

  /// Drains any skipped/restored tail after the producers stop; every fresh
  /// slot must have been submitted or abandoned by then. Rethrows the
  /// failure of an earlier fold.
  void finalize();

  /// Peak number of out-of-order shards parked at once (memory telemetry).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  /// Wall seconds the fold steps consumed (StageSeconds::merge). Read after
  /// finalize(). Folds run one at a time, outside the frontier lock, on
  /// whichever producer became the folder, so this is the serial fold time
  /// — not a sum over overlapping producers.
  [[nodiscard]] double fold_seconds() const { return fold_seconds_; }

 private:
  void fold_ready(std::unique_lock<std::mutex>& lock);
  void fold(report::ShardCheckpoint&& record);

  std::mutex mu_;
  std::condition_variable room_;  // held_ shrank, or the folder stopped
  std::vector<Slot> slots_;
  Feed feed_;
  CampaignReport::FoldedTotals& totals_;
  std::size_t park_bound_;
  std::map<std::size_t, report::ShardCheckpoint> held_;
  // The run being folded; folder-only.
  std::vector<report::ShardCheckpoint> ready_;
  std::size_t cursor_ = 0;
  bool folding_ = false;
  std::exception_ptr fold_error_;
  std::size_t high_water_ = 0;
  double fold_seconds_ = 0;
};

}  // namespace acute::testbed
