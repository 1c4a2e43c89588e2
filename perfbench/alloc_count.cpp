// Counting global allocator (the idiom of bench_large_campaign and
// tests/test_sim_alloc): every operator new variant goes through malloc and,
// while counting is enabled, bumps one atomic. Untraced repetitions leave it
// disabled, so they pay one relaxed flag load per allocation.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
thread_local bool t_paused = false;

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed) && !t_paused) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

namespace perfbench {
void count_allocations(bool enabled) {
  g_counting.store(enabled, std::memory_order_relaxed);
}
std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
UncountedScope::UncountedScope() : was_paused_(t_paused) { t_paused = true; }
UncountedScope::~UncountedScope() { t_paused = was_paused_; }
}  // namespace perfbench

void* operator new(std::size_t size) {
  note_allocation();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation();
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  void* p = std::aligned_alloc(al, rounded == 0 ? al : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow variants too, so every allocation pairs with the free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
