#include "sim/event_queue.hpp"

#include <algorithm>

namespace acute::sim {

EventQueue::EventQueue() : life_(new detail::QueueLife{this, 1}) {}

EventQueue::~EventQueue() {
  life_->queue = nullptr;  // outstanding handles become inert
  if (--life_->refs == 0) delete life_;
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_slots_.empty()) {
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() * kSlotsPerChunk);
    chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
    // Reserve for the worst case (every slot free at once) so release_slot
    // never reallocates, then hand out low indices first.
    free_slots_.reserve(chunks_.size() * kSlotsPerChunk);
    for (std::uint32_t i = kSlotsPerChunk; i > 0; --i) {
      free_slots_.push_back(base + i - 1);
    }
  }
  const std::uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

void EventQueue::cancel_event(std::uint32_t index,
                              std::uint32_t generation) noexcept {
  Slot& s = slot(index);
  if (!s.live || s.generation != generation) return;  // fired/cancelled/reused
  s.live = false;
  ++s.generation;  // stale handles can never match this slot again
  s.fn.reset();    // release captures eagerly
  --live_count_;
  // Lazy deletion: the heap item stays until it reaches the top or is
  // compacted away.
}

void EventQueue::drop_dead_prefix() {
  while (!heap_.empty() && !slot(heap_.front().slot).live) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    release_slot(heap_.back().slot);
    heap_.pop_back();
  }
}

void EventQueue::maybe_compact() {
  // Compact when cancelled entries dominate: the O(n) sweep is then paid at
  // most every n/2 cancellations, i.e. amortized O(1) per event.
  if (heap_.size() < kCompactMinEntries) return;
  if (heap_.size() < 2 * live_count_) return;
  std::size_t write = 0;
  for (std::size_t read = 0; read < heap_.size(); ++read) {
    const HeapItem& item = heap_[read];
    if (slot(item.slot).live) {
      heap_[write++] = item;
    } else {
      release_slot(item.slot);
    }
  }
  heap_.resize(write);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ++compactions_;
}

void EventQueue::clear() {
  for (const HeapItem& item : heap_) {
    Slot& s = slot(item.slot);
    if (s.live) {
      s.live = false;
      ++s.generation;
      s.fn.reset();
    }
    release_slot(item.slot);
  }
  heap_.clear();
  live_count_ = 0;
}

}  // namespace acute::sim
