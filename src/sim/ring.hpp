// A FIFO on one power-of-two circular buffer.
//
// The transmit queues of the wireless medium drain and refill forever under
// saturation. A node-based queue (std::deque) allocates and frees storage as
// it does so; this ring allocates only when it is full, doubling its
// capacity, and keeps that capacity across clear(). A warm ring therefore
// makes no heap allocation in steady state, and a queue capped at N
// elements never holds more than the next power of two >= N slots.
//
// A slot holds a live T only while its element is in the ring: pop_front()
// and clear() destroy the element in place, so a warm ring keeps no
// resources (e.g. a packet's shared payload) alive past its elements.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::sim {

template <typename T>
class Ring {
 public:
  Ring() = default;
  ~Ring() {
    clear();
    std::allocator<T>().deallocate(slots_, capacity_);
  }

  Ring(Ring&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Ring& operator=(Ring&&) = delete;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated: 0 or a power of two; never shrinks.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The oldest element (or the last one push_front() placed). Requires a
  /// non-empty ring.
  [[nodiscard]] T& front() {
    expects(size_ > 0, "Ring::front on an empty ring");
    return slots_[head_];
  }

  /// Appends `value` at the back.
  void push_back(T&& value) {
    if (size_ == capacity_) grow();
    std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)),
                      std::move(value));
    ++size_;
  }

  /// Inserts `value` ahead of every element (it becomes front()).
  void push_front(T&& value) {
    if (size_ == capacity_) grow();
    const std::size_t slot = (head_ + capacity_ - 1) & (capacity_ - 1);
    std::construct_at(slots_ + slot, std::move(value));
    head_ = slot;
    ++size_;
  }

  /// Destroys the front element. Requires a non-empty ring.
  void pop_front() {
    expects(size_ > 0, "Ring::pop_front on an empty ring");
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Destroys every element; the capacity stays.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  // Doubles the storage, moving the elements to slots [0, size) in order.
  void grow() {
    const std::size_t capacity =
        capacity_ == 0 ? kInitialCapacity : 2 * capacity_;
    T* slots = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = slots_ + ((head_ + i) & (capacity_ - 1));
      std::construct_at(slots + i, std::move(*from));
      std::destroy_at(from);
    }
    std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace acute::sim
