#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/event_queue.hpp"

namespace acute::sim {
namespace {

using namespace acute::sim::literals;

TimePoint at(std::int64_t ms) {
  return TimePoint::epoch() + Duration::millis(ms);
}

// Fires the earliest live event through the path Simulator::run takes.
bool fire(EventQueue& queue) { return queue.fire_one([](TimePoint) {}); }

void drain(EventQueue& queue) {
  while (fire(queue)) {
  }
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<TimePoint> times;
  (void)queue.push(at(30), [&] { order.push_back(3); });
  (void)queue.push(at(10), [&] { order.push_back(1); });
  (void)queue.push(at(20), [&] { order.push_back(2); });
  while (queue.fire_one([&](TimePoint when) { times.push_back(when); })) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<TimePoint>{at(10), at(20), at(30)}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    (void)queue.push(at(5), [&order, i] { order.push_back(i); });
  }
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  auto h1 = queue.push(at(1), [] {});
  auto h2 = queue.push(at(2), [] {});
  EXPECT_EQ(queue.size(), 2u);
  h1.cancel();
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(fire(queue));
  EXPECT_TRUE(queue.empty());
  (void)h2;
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue queue;
  std::vector<int> order;
  auto h1 = queue.push(at(1), [&] { order.push_back(1); });
  (void)queue.push(at(2), [&] { order.push_back(2); });
  h1.cancel();
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue queue;
  auto handle = queue.push(at(1), [] {});
  handle.cancel();
  handle.cancel();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, HandlePendingReflectsState) {
  EventQueue queue;
  auto handle = queue.push(at(1), [] {});
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(EventQueue, HandleOfFiredEventIsNotPending) {
  EventQueue queue;
  auto handle = queue.push(at(1), [] {});
  EXPECT_TRUE(fire(queue));
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // harmless after firing
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op
}

TEST(EventQueue, HandleOutlivingQueueIsSafe) {
  EventHandle handle;
  {
    EventQueue queue;
    handle = queue.push(at(1), [] {});
  }
  handle.cancel();  // must not crash or touch freed memory
}

TEST(EventQueue, StaleHandleCannotCancelSlotReuse) {
  // The slot pool recycles LIFO, so the second push reuses the fired
  // event's slot. The stale handle's generation no longer matches and must
  // not be able to cancel (or observe) the slot's new tenant.
  EventQueue queue;
  int fired = 0;
  auto h1 = queue.push(at(1), [&] { ++fired; });
  EXPECT_TRUE(fire(queue));  // fires event 1 and frees its slot
  auto h2 = queue.push(at(2), [&] { ++fired; });
  h1.cancel();  // generation mismatch: must be a no-op
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_TRUE(fire(queue));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StaleHandleAfterCancelCannotTouchReusedSlot) {
  EventQueue queue;
  int fired = 0;
  auto h1 = queue.push(at(1), [&] { ++fired; });
  h1.cancel();
  // Drain the dead entry so its slot returns to the pool, then reuse it.
  EXPECT_TRUE(queue.empty());
  auto h2 = queue.push(at(2), [&] { ++fired; });
  h1.cancel();  // double-stale: already cancelled AND the slot moved on
  EXPECT_TRUE(h2.pending());
  drain(queue);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, HandleCopiesShareTheEvent) {
  EventQueue queue;
  auto h1 = queue.push(at(1), [] {});
  EventHandle h2 = h1;
  EXPECT_TRUE(h1.pending());
  EXPECT_TRUE(h2.pending());
  h2.cancel();
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SizeIsPlainCountAcrossCancelFireAndCompaction) {
  // empty()/size() read a plain member (no indirection); the count must
  // stay exact through every path that retires events.
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(queue.push(at(i), [] {}));
  }
  EXPECT_EQ(queue.size(), 200u);
  for (int i = 0; i < 200; i += 2) handles[i].cancel();
  EXPECT_EQ(queue.size(), 100u);
  // The live events before the deadline are exactly 1, 3, ..., 99.
  int fired = 0;
  while (queue.fire_one_before(at(99), [](TimePoint) {})) ++fired;
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(queue.size(), 50u);
  // Force the compaction threshold (cancelled >= live, >= 64 entries).
  for (int i = 1; i < 200; i += 2) handles[i].cancel();
  (void)queue.push(at(1000), [] {});
  EXPECT_EQ(queue.size(), 1u);
  queue.clear();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, FireOneBeforeSkipsCancelledHead) {
  // A cancelled head must neither fire nor hide the live event behind it
  // from the deadline check.
  EventQueue queue;
  auto h1 = queue.push(at(1), [] {});
  (void)queue.push(at(5), [] {});
  h1.cancel();
  std::vector<TimePoint> times;
  const auto record = [&](TimePoint when) { times.push_back(when); };
  EXPECT_FALSE(queue.fire_one_before(at(4), record));
  EXPECT_TRUE(queue.fire_one_before(at(5), record));
  EXPECT_EQ(times, (std::vector<TimePoint>{at(5)}));
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue queue;
  (void)queue.push(at(1), [] {});
  (void)queue.push(at(2), [] {});
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, FireOnEmptyQueueReturnsFalse) {
  EventQueue queue;
  int hooks = 0;
  const auto count = [&](TimePoint) { ++hooks; };
  EXPECT_FALSE(queue.fire_one(count));
  EXPECT_FALSE(queue.fire_one_before(at(1), count));
  queue.push(at(1), [] {}).cancel();  // only dead entries left
  EXPECT_FALSE(queue.fire_one(count));
  EXPECT_EQ(hooks, 0);
}

// A pre-built EventClosure (possibly empty) is not a push argument at all;
// every other callable's emptiness is checked at push time below.
template <typename F>
constexpr bool kPushable = requires(EventQueue& queue, F fn) {
  queue.push(at(1), std::move(fn));
};
static_assert(!kPushable<EventClosure>);
static_assert(kPushable<void (*)()>);

TEST(EventQueue, NullFunctionPointerRejectedAtPush) {
  EventQueue queue;
  void (*null_fn)() = nullptr;
  EXPECT_THROW((void)queue.push(at(1), null_fn), ContractViolation);
  std::function<void()> empty_fn;
  EXPECT_THROW((void)queue.push(at(1), std::move(empty_fn)),
               ContractViolation);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ThrowingCallbackDoesNotLeakSlots) {
  // A callback that throws must still return its slot to the pool on the
  // unwind path; leaking one per throw would grow the chunk count.
  EventQueue queue;
  for (int i = 0; i < 1000; ++i) {
    (void)queue.push(at(i), [] { throw std::runtime_error("boom"); });
    EXPECT_THROW((void)fire(queue), std::runtime_error);
    EXPECT_TRUE(queue.empty());
  }
  EXPECT_EQ(queue.slot_chunks(), 1u);
}

TEST(EventQueue, CompactsWhenCancelledEventsDominate) {
  // Campaign-style load: every probe arms a timeout that is then cancelled.
  // Lazy deletion alone would keep all dead entries in the heap until their
  // fire time; compaction must bound the raw entry count near the live one.
  EventQueue queue;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 4096;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(queue.push(at(1000 + i), [] {}));
  }
  for (int i = 0; i < kEvents; ++i) {
    if (i % 16 != 0) handles[i].cancel();  // 15/16 cancelled
  }
  // One more push crosses the cancelled > live threshold and compacts.
  (void)queue.push(at(10'000), [] {});
  EXPECT_GE(queue.compactions(), 1u);
  EXPECT_LE(queue.heap_entries(), 2 * queue.size() + EventQueue::kCompactMinEntries);

  // Behaviour is unchanged: exactly the survivors fire, in time order.
  std::vector<TimePoint> expected;
  for (int i = 0; i < kEvents; i += 16) expected.push_back(at(1000 + i));
  expected.push_back(at(10'000));
  std::vector<TimePoint> times;
  while (queue.fire_one([&](TimePoint when) { times.push_back(when); })) {
  }
  EXPECT_EQ(times, expected);
}

TEST(EventQueue, SmallQueuesNeverCompact) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(queue.push(at(i), [] {}));
  }
  for (auto& handle : handles) handle.cancel();
  (void)queue.push(at(100), [] {});
  EXPECT_EQ(queue.compactions(), 0u);
}

// The three reentrancy claims fire_top makes, one callback each: size()
// and empty() stay exact, and the events left afterwards fire in order.

TEST(EventQueue, CallbackMayGrowTheSlotPoolUnderItsOwnSlot) {
  // The firing closure's slot stays in use while it pushes more than a
  // chunk's worth of events: chunks_ grows (and its vector reallocates),
  // but no chunk moves and the firing slot is not handed out again.
  EventQueue queue;
  constexpr int kPushes = 300;  // > 2 chunks of 128 slots
  std::vector<int> order;
  (void)queue.push(at(1), [&queue, &order, marker = 42] {
    for (int i = 0; i < kPushes; ++i) {
      (void)queue.push(at(10), [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(marker, 42);  // our captures were not overwritten
    EXPECT_EQ(queue.size(), kPushes + 1u);
    order.push_back(-1);
  });
  (void)queue.push(at(2), [&order] { order.push_back(-2); });
  ASSERT_EQ(queue.slot_chunks(), 1u);
  EXPECT_TRUE(fire(queue));
  EXPECT_GE(queue.slot_chunks(), 3u);
  EXPECT_EQ(queue.size(), kPushes + 1u);
  drain(queue);
  ASSERT_EQ(order.size(), kPushes + 2u);
  EXPECT_EQ(order[0], -1);
  EXPECT_EQ(order[1], -2);
  for (int i = 0; i < kPushes; ++i) EXPECT_EQ(order[i + 2], i);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CallbackMayCancelItsOwnHandle) {
  // The slot is marked dead before user code runs, so cancelling the
  // firing event is a no-op: its captures stay alive for the rest of the
  // call and its slot is released exactly once.
  EventQueue queue;
  std::vector<int> order;
  EventHandle self;
  self = queue.push(at(1), [&, label = std::vector<int>{7, 8, 9}] {
    EXPECT_FALSE(self.pending());
    self.cancel();
    EXPECT_EQ(queue.size(), 1u);
    (void)queue.push(at(2), [&order] { order.push_back(2); });
    order.push_back(label.back());  // reads the captures after cancel()
  });
  (void)queue.push(at(2), [&order] { order.push_back(1); });
  EXPECT_TRUE(fire(queue));
  EXPECT_EQ(queue.size(), 2u);
  // A double release would hand these two pushes the same slot.
  auto a = queue.push(at(3), [&order] { order.push_back(3); });
  auto b = queue.push(at(3), [&order] { order.push_back(4); });
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{9, 1, 2, 3, 4}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CallbackMayClearTheQueue) {
  // The firing item is already off the heap, so clear() drops only the
  // other events and this frame alone releases the firing slot.
  EventQueue queue;
  std::vector<int> order;
  (void)queue.push(at(1), [&queue, &order] {
    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    (void)queue.push(at(5), [&order] { order.push_back(5); });
    EXPECT_EQ(queue.size(), 1u);
  });
  auto dropped = queue.push(at(2), [&order] { order.push_back(-2); });
  (void)queue.push(at(3), [&order] { order.push_back(-3); });
  EXPECT_TRUE(fire(queue));
  EXPECT_FALSE(dropped.pending());
  EXPECT_EQ(queue.size(), 1u);
  // A double release would hand these two pushes the same slot.
  auto a = queue.push(at(5), [&order] { order.push_back(6); });
  auto b = queue.push(at(6), [&order] { order.push_back(7); });
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{5, 6, 7}));
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace acute::sim
