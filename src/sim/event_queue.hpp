// Priority queue of timestamped events with stable FIFO ordering for ties,
// O(1) generation-checked cancellation, and zero heap allocations per event
// in steady state.
//
// Storage model
//   * Closures live in a pool of fixed slots (stable chunked storage, LIFO
//     free list) and are built in place in EventClosure's inline buffer;
//     push accepts only closures that fit it. Once the pool and the heap
//     vector are warm, push/cancel/fire perform no allocation at all — the
//     event-core allocation test pins this.
//   * The binary heap orders small {when, seq, slot} items, so sift
//     operations move 24 bytes per hop regardless of capture size.
//   * An EventHandle is {slot index, generation}: cancel/pending are O(1)
//     slot lookups with no atomics. Each completed event (fired or
//     cancelled) bumps its slot's generation, so a stale handle can never
//     touch the slot's next tenant. Handles reach the queue through a single
//     per-queue life block, so a handle outliving the queue is inert.
//
// Determinism invariants (these survived the allocation-free rewrite and
// every future change must preserve them):
//   * Events fire in strict (time, insertion sequence) order; two events
//     scheduled for the same instant fire in the order they were pushed.
//     fire_one/fire_one_before are the only way an event leaves the queue
//     other than cancel/clear, and the Simulator drives them.
//   * Cancellation is lazy in the heap (the {when, seq, slot} item stays
//     until it reaches the top or is compacted away) but eager in effect:
//     the closure and its captures are destroyed at cancel() time, and the
//     live count drops immediately.
//   * Compaction only erases dead items and re-heapifies over the same
//     (when, seq) comparator, so it never changes the fire order.
//   * Slot indices and generations are bookkeeping only — nothing orders on
//     them — so pool reuse patterns cannot perturb replay determinism.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/closure.hpp"
#include "sim/contracts.hpp"
#include "sim/time.hpp"

namespace acute::sim {

class EventQueue;

namespace detail {
/// One per EventQueue: lets handles reach the queue safely. `queue` is
/// nulled when the queue dies, so handles that outlive it become inert. The
/// refcount is deliberately non-atomic — the event core is single-threaded
/// per simulator shard, and handles must not cross threads.
struct QueueLife {
  EventQueue* queue = nullptr;
  std::uint64_t refs = 0;
};
}  // namespace detail

/// Handle returned by EventQueue::push; allows cancelling a pending event.
///
/// A handle is {slot, generation}: cancelling after the event fired (or was
/// already cancelled) is a no-op, and a handle kept across slot reuse cannot
/// cancel the slot's newer event (generation mismatch). Handles are cheap to
/// copy; a handle outliving the queue is harmless.
class EventHandle {
 public:
  EventHandle() = default;

  EventHandle(const EventHandle& other)
      : life_(other.life_), slot_(other.slot_), generation_(other.generation_) {
    if (life_ != nullptr) ++life_->refs;
  }
  EventHandle(EventHandle&& other) noexcept
      : life_(other.life_), slot_(other.slot_), generation_(other.generation_) {
    other.life_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& other) {
    if (this != &other) {
      release();
      life_ = other.life_;
      slot_ = other.slot_;
      generation_ = other.generation_;
      if (life_ != nullptr) ++life_->refs;
    }
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      release();
      life_ = other.life_;
      slot_ = other.slot_;
      generation_ = other.generation_;
      other.life_ = nullptr;
    }
    return *this;
  }
  ~EventHandle() { release(); }

  /// Cancels the event if it has not fired yet. Idempotent; O(1).
  void cancel();

  /// True when the handle refers to an event that is still pending.
  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(detail::QueueLife* life, std::uint32_t slot,
              std::uint32_t generation)
      : life_(life), slot_(slot), generation_(generation) {
    ++life_->refs;
  }
  void release() noexcept {
    if (life_ != nullptr && --life_->refs == 0) delete life_;
    life_ = nullptr;
  }

  detail::QueueLife* life_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Min-heap of events keyed by (time, insertion sequence).
///
/// Two events scheduled for the same instant fire in the order they were
/// pushed, which keeps the simulation deterministic.
class EventQueue {
 public:
  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event that fires at `when`. Returns a cancellation handle.
  /// The callable is built directly into its slot's inline buffer — one
  /// move of the callable, zero heap allocations in steady state. A
  /// callable that does not fit the buffer does not compile.
  template <typename F, typename Fn = std::remove_cvref_t<F>>
    requires(!std::is_same_v<Fn, EventClosure> && std::is_invocable_v<Fn&> &&
             EventClosure::fits_inline<Fn>)
  EventHandle push(TimePoint when, F&& fn) {
    // Catch empty callables (null function pointers, empty std::function)
    // at schedule time, not as a crash at fire time. Lambdas skip this.
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      expects(static_cast<bool>(fn), "EventQueue::push requires a callable");
    }
    const std::uint32_t index = acquire_slot();
    Slot& s = slot(index);
    s.fn.emplace(std::forward<F>(fn));
    s.live = true;
    heap_.push_back(HeapItem{when, next_seq_++, index});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_count_;
    maybe_compact();
    return EventHandle{life_, index, s.generation};
  }

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of live events currently queued.
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Pops and invokes the earliest live event *in place* — no closure move.
  /// `pre` runs with the fire time after the event is committed (detached
  /// from cancellation) but before the closure executes; the Simulator
  /// advances its clock there. Returns false when the queue is empty.
  template <typename PreFire>
  bool fire_one(PreFire&& pre) {
    drop_dead_prefix();
    if (heap_.empty()) return false;
    fire_top(pre);
    return true;
  }

  /// As fire_one, but only when the earliest live event fires at or before
  /// `deadline`. One heap-top inspection decides "any event?" and "beats
  /// the deadline?" together, so batched run_until loops never pay a
  /// separate emptiness check per event.
  template <typename PreFire>
  bool fire_one_before(TimePoint deadline, PreFire&& pre) {
    drop_dead_prefix();
    if (heap_.empty() || deadline < heap_.front().when) return false;
    fire_top(pre);
    return true;
  }

  /// Drops every queued event.
  void clear();

  /// Restores the freshly-constructed observable state while keeping the
  /// warm storage (slot chunks, free list, heap capacity).
  /// Stale handles stay inert (clear() bumps every live generation), and
  /// the insertion-sequence counter restarts at zero so a reused queue
  /// breaks time ties exactly like a brand-new one — the property the
  /// campaign shard-context pool's bit-identity contract rests on.
  void reset() {
    clear();
    next_seq_ = 0;
    compactions_ = 0;
  }

  /// Raw heap entries, cancelled ones included (compaction introspection).
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

  /// Times the heap was compacted (cancelled entries physically removed).
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

  /// Slot-pool chunks allocated so far (introspection; flat once warm).
  [[nodiscard]] std::size_t slot_chunks() const { return chunks_.size(); }

  /// Below this many raw entries compaction is never attempted (the scan
  /// would cost more than the dead entries do).
  static constexpr std::size_t kCompactMinEntries = 64;

 private:
  friend class EventHandle;

  struct Slot {
    EventClosure fn;
    std::uint32_t generation = 0;
    bool live = false;
  };
  struct HeapItem {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kSlotsPerChunk = 128;

  [[nodiscard]] Slot& slot(std::uint32_t index) {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) noexcept {
    free_slots_.push_back(index);  // capacity pre-reserved; never reallocates
  }

  void cancel_event(std::uint32_t index, std::uint32_t generation) noexcept;
  [[nodiscard]] bool event_pending(std::uint32_t index,
                                   std::uint32_t generation) const {
    const Slot& s = slot(index);
    return s.live && s.generation == generation;
  }

  void drop_dead_prefix();
  void maybe_compact();

  // Pops the heap top and runs its closure without moving it out of the
  // slot. Safe against reentrant push (slot chunks never move), against
  // self-cancel (the slot is marked dead and its generation bumped before
  // user code runs) and against clear() from inside the callback (the
  // firing item is already off the heap, so only this frame releases its
  // slot). test_sim_event_queue's Callback* cases pin all three.
  template <typename PreFire>
  void fire_top(PreFire&& pre) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const HeapItem item = heap_.back();
    heap_.pop_back();
    Slot& s = slot(item.slot);
    s.live = false;
    ++s.generation;  // the firing event can no longer be cancelled
    --live_count_;
    pre(item.when);
    try {
      s.fn();
    } catch (...) {
      // A throwing callback must not leak the slot (or keep its captures
      // alive): release on the unwind path too, then propagate.
      s.fn.reset();
      release_slot(item.slot);
      throw;
    }
    s.fn.reset();
    release_slot(item.slot);
  }

  // Stable chunked slot storage: chunks are never moved or freed while the
  // queue lives, so in-flight closures keep their addresses and the pool
  // recycles instead of reallocating.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapItem> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  std::uint64_t compactions_ = 0;
  detail::QueueLife* life_ = nullptr;
};

inline void EventHandle::cancel() {
  if (life_ == nullptr || life_->queue == nullptr) return;
  life_->queue->cancel_event(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return life_ != nullptr && life_->queue != nullptr &&
         life_->queue->event_pending(slot_, generation_);
}

}  // namespace acute::sim
