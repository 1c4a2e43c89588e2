// sim::Ring, the FIFO behind the radio transmit queues and the AP's
// power-save buffers: order across wrap-around and growth, push_front for
// beacons, capacity kept by clear(), and element lifetime (a popped slot
// must not keep its packet's payload alive).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/contracts.hpp"
#include "sim/ring.hpp"

namespace acute::sim {
namespace {

// Pops every element, front first.
std::vector<int> drain(Ring<int>& ring) {
  std::vector<int> out;
  while (!ring.empty()) {
    out.push_back(ring.front());
    ring.pop_front();
  }
  return out;
}

// Leaves `ring` holding `live` elements whose storage has wrapped: the
// head sits `offset` slots into the buffer.
void wrap(Ring<int>& ring, int offset, int live, int first_value) {
  for (int i = 0; i < offset; ++i) ring.push_back(-1);
  for (int i = 0; i < offset; ++i) ring.pop_front();
  for (int i = 0; i < live; ++i) ring.push_back(first_value + i);
}

TEST(Ring, StartsEmptyWithoutStorage) {
  Ring<int> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_THROW((void)ring.front(), ContractViolation);
  EXPECT_THROW(ring.pop_front(), ContractViolation);
}

TEST(Ring, KeepsFifoOrderAcrossWrapAround) {
  Ring<int> ring;
  for (int i = 0; i < 5; ++i) ring.push_back(int{i});
  ASSERT_EQ(ring.capacity(), 8u);
  // Rotate through the 8 slots five times at a constant depth of 5.
  for (int i = 5; i < 45; ++i) {
    ASSERT_EQ(ring.front(), i - 5);
    ring.pop_front();
    ring.push_back(int{i});
  }
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(drain(ring), (std::vector<int>{40, 41, 42, 43, 44}));
}

TEST(Ring, PushFrontWhileWrappedJumpsTheQueue) {
  Ring<int> ring;
  wrap(ring, /*offset=*/6, /*live=*/4, /*first_value=*/10);  // 10..13
  ASSERT_EQ(ring.capacity(), 8u);
  ring.push_front(1);
  ring.push_front(0);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.front(), 0);
  EXPECT_EQ(drain(ring), (std::vector<int>{0, 1, 10, 11, 12, 13}));

  // From head slot 0 push_front wraps backwards to the last slot.
  Ring<int> fresh;
  fresh.push_back(5);
  fresh.push_front(4);
  fresh.push_back(6);
  EXPECT_EQ(drain(fresh), (std::vector<int>{4, 5, 6}));
}

TEST(Ring, GrowthWhileWrappedKeepsTheOrder) {
  Ring<int> ring;
  wrap(ring, /*offset=*/5, /*live=*/8, /*first_value=*/0);  // full, wrapped
  ASSERT_EQ(ring.capacity(), 8u);
  ring.push_back(8);  // doubles
  EXPECT_EQ(ring.capacity(), 16u);
  ring.push_front(-1);
  std::vector<int> expected{-1};
  for (int i = 0; i <= 8; ++i) expected.push_back(i);
  EXPECT_EQ(drain(ring), expected);

  // A full wrapped ring that grows through push_front keeps order too.
  Ring<int> front_grown;
  wrap(front_grown, /*offset=*/3, /*live=*/8, /*first_value=*/1);
  front_grown.push_front(0);
  EXPECT_EQ(front_grown.capacity(), 16u);
  EXPECT_EQ(drain(front_grown),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Ring, CapacityIsThePowerOfTwoAboveThePeak) {
  Ring<int> ring;
  for (int i = 0; i < 1000; ++i) ring.push_back(int{i});
  EXPECT_EQ(ring.capacity(), 1024u);
  EXPECT_EQ(ring.size(), 1000u);
}

TEST(Ring, ClearKeepsTheCapacity) {
  Ring<int> ring;
  wrap(ring, /*offset=*/20, /*live=*/30, /*first_value=*/0);
  const std::size_t capacity = ring.capacity();
  ASSERT_EQ(capacity, 32u);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), capacity);
  for (int i = 0; i < 32; ++i) ring.push_back(int{i});
  EXPECT_EQ(ring.capacity(), capacity);
  EXPECT_EQ(ring.front(), 0);
}

// The AP's station table is a vector of power-save rings: growing it
// moves them.
TEST(Ring, MoveTransfersStorageAndElements) {
  Ring<int> ring;
  wrap(ring, /*offset=*/7, /*live=*/3, /*first_value=*/1);
  Ring<int> moved(std::move(ring));
  EXPECT_EQ(ring.capacity(), 0u);  // NOLINT: moved-from state is specified
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(moved.capacity(), 8u);
  EXPECT_EQ(drain(moved), (std::vector<int>{1, 2, 3}));
}

TEST(Ring, APoppedSlotReleasesItsPacketsPayload) {
  const net::PayloadBuffer payload = net::Packet::make_payload({1, 2, 3});
  Ring<net::Packet> ring;
  for (int i = 0; i < 3; ++i) {
    net::Packet packet;
    packet.payload = payload;
    ring.push_back(std::move(packet));
  }
  EXPECT_EQ(payload.use_count(), 4);
  // A drop that never moves the element out (the channel's
  // retry-exhausted path) must still release its reference.
  ring.pop_front();
  EXPECT_EQ(payload.use_count(), 3);
  net::Packet taken = std::move(ring.front());
  ring.pop_front();
  EXPECT_EQ(payload.use_count(), 3);  // `taken` holds it now
  ring.clear();
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_GT(ring.capacity(), 0u);

  // Growth moves packets without leaking references.
  for (int i = 0; i < 20; ++i) {
    net::Packet packet;
    packet.payload = payload;
    ring.push_back(std::move(packet));
  }
  EXPECT_EQ(payload.use_count(), 22);
  {
    Ring<net::Packet> dying(std::move(ring));
  }
  EXPECT_EQ(payload.use_count(), 2);
}

}  // namespace
}  // namespace acute::sim
