// The one duplicate-shard rule of the results pipeline: LAST claim wins.
//
// Several surfaces can observe more than one record for the same scenario
// index — a checkpoint file appended across kill/resume ticks, the fabric
// coordinator receiving a shard from both the original lease holder and the
// worker the range was re-leased to after an expiry. They all resolve the
// conflict with the same rule: among records claiming the same scenario
// index, the one observed last wins, and winners are consumed in ascending
// scenario order (the campaign's canonical merge order). Because a shard's
// outcome is a pure function of (spec, campaign seed, index), every claimant
// carries bit-identical bytes, so "last wins" is an arbitrary-but-fixed
// tiebreak, not a data decision — what matters is that every consumer picks
// the SAME winner, which is why the rule lives in exactly one place.
//
// User: report::compact_checkpoint. The campaign ledger's restored-slot feed
// (Campaign::run and the fabric coordinator) reads a compact_checkpoint
// output file, so it inherits the rule through the compaction rather than
// re-deriving it.
#pragma once

#include <cstddef>
#include <map>
#include <utility>

namespace acute::report {

/// Ordered last-wins accumulator: claim() overwrites any previous value for
/// the index; for_each() visits the winners in ascending scenario order.
template <typename Value>
class LatestWinsMerge {
 public:
  /// Records `value` as the current winner for `scenario_index`,
  /// overwriting any earlier claim (the last-wins rule).
  void claim(std::size_t scenario_index, Value value) {
    latest_.insert_or_assign(scenario_index, std::move(value));
  }

  /// Applies `fn(scenario_index, value)` to every winner, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [index, value] : latest_) fn(index, value);
  }

 private:
  std::map<std::size_t, Value> latest_;
};

}  // namespace acute::report
