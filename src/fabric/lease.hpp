// Lease bookkeeping for the campaign fabric: who owns which shard range,
// until when, and what happens when they vanish.
//
// Pure logic, no clock and no I/O: every mutator takes an explicit now_ms,
// so expiry behavior is unit-testable with a fake clock ("heartbeat expiry
// re-leases exactly once") and the coordinator picks the time source.
//
// Lifecycle of a scenario index:
//   pending ──grant()──▶ leased ──complete()──▶ done          (happy path)
//                          │
//                          ├─ expire(now past deadline) ──▶ pending again,
//                          │    retry count bumped (timeout grows by
//                          │    expiry_backoff per retry, capped) — the
//                          │    stalled-worker path
//                          └─ revoke(lease) ──▶ pending again — the
//                               worker-died (EOF/torn-frame) path
//
// complete() is index-level and idempotent: after a re-lease, *both* the
// original holder (if merely stalled) and the new one may report the same
// index. The first claim flips it to done and returns true; later claims
// return false — the coordinator's cue to count a duplicate and skip the
// merge (the bytes are identical anyway, shards being pure functions of
// (spec, seed, index); the checkpoint keeps every copy, and compaction keeps
// the last).
//
// grant() hands out the lowest contiguous run of pending indices (capped at
// batch). A worker holds at most two leases, the one it runs and the one
// queued behind it, so under ascending completion the coordinator's merge
// frontier holds O(2 × workers × batch) out-of-order shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace acute::fabric {

struct LeaseConfig {
  /// Max scenario indices per lease.
  std::size_t batch = 16;
  /// Deadline extension granted by grant() and each heartbeat. Any frame
  /// from a worker heartbeats every lease it holds, and a worker is silent
  /// for at most lease_timeout_ms / 4 plus one shard, so this must exceed
  /// 4/3 of one shard's wall time.
  std::uint64_t lease_timeout_ms = 10'000;
  /// Timeout multiplier per prior expiry of an index (a range that keeps
  /// timing out is probably slow, not cursed — give it longer).
  double expiry_backoff = 2.0;
  /// Cap on the backoff-grown timeout; never below lease_timeout_ms.
  std::uint64_t max_timeout_ms = 120'000;
};

/// One outstanding lease: the half-open range [begin, end) granted to a
/// worker, and the deadline its next heartbeat must beat.
struct Lease {
  std::uint64_t id = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t deadline_ms = 0;
};

class LeaseTable {
 public:
  /// `leasable[i]` false marks indices this run will never lease (already
  /// restored from the coordinator's checkpoint, or beyond the max_shards
  /// cap); they are never pending, all_complete() does not wait for them,
  /// and complete() reports them as duplicates.
  LeaseTable(std::vector<bool> leasable, LeaseConfig config);

  /// Leases the lowest contiguous pending run (≤ config.batch indices);
  /// nullopt when nothing is pending (work may still be outstanding on
  /// other leases — check all_complete()).
  [[nodiscard]] std::optional<Lease> grant(std::uint64_t now_ms);

  /// Extends `lease_id`'s deadline; false when the lease is unknown —
  /// already expired and re-leased, or finished. A stalled-but-alive worker
  /// learns its lease is gone only through the duplicate completions it
  /// reports, which is harmless (see complete()).
  bool heartbeat(std::uint64_t lease_id, std::uint64_t now_ms);

  /// Marks one scenario index done. True on the first claim; false for
  /// duplicates (already done — the re-lease race). Idempotent, accepts
  /// indices from expired leases.
  bool complete(std::size_t index);

  /// Drops a lease whose worker finished its whole range. Any index the
  /// worker failed to report re-enters pending (defensive; a correct worker
  /// reports every index before lease_done).
  void finish(std::uint64_t lease_id);

  /// Returns every lease whose deadline is ≤ now_ms, after moving their
  /// uncompleted indices back to pending (retry count bumped). Each expiry
  /// re-queues an index exactly once — a second expire() call at the same
  /// instant returns nothing.
  [[nodiscard]] std::vector<Lease> expire(std::uint64_t now_ms);

  /// Re-queues a dead worker's uncompleted indices immediately (EOF / torn
  /// frame — no reason to wait for the deadline). Unknown ids are a no-op.
  void revoke(std::uint64_t lease_id);

  /// The soonest outstanding deadline (the coordinator's poll timeout);
  /// nullopt when no leases are outstanding.
  [[nodiscard]] std::optional<std::uint64_t> next_deadline_ms() const;

  /// True when every leasable index is done.
  [[nodiscard]] bool all_complete() const { return done_count_ == leasable_; }

  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] std::size_t done_count() const { return done_count_; }
  [[nodiscard]] std::size_t leasable_count() const { return leasable_; }
  [[nodiscard]] std::size_t outstanding_leases() const {
    return leases_.size();
  }

 private:
  /// Timeout for a range whose worst index has been re-queued `retries`
  /// times: lease_timeout_ms × backoff^retries, capped at max_timeout_ms
  /// (or at lease_timeout_ms, if that is larger).
  [[nodiscard]] std::uint64_t timeout_for(const Lease& lease) const;

  LeaseConfig config_;
  std::set<std::size_t> pending_;
  std::vector<bool> done_;
  std::vector<std::uint32_t> retries_;
  std::map<std::uint64_t, Lease> leases_;
  std::uint64_t next_lease_id_ = 1;
  std::size_t leasable_ = 0;
  std::size_t done_count_ = 0;
};

}  // namespace acute::fabric
