// The host-speed probe: a fixed kernel that the benchmark owns, run right
// before every repetition. On a shared host the CPU time one instruction
// costs drifts by 10-20 % over minutes (other tenants, frequency), and the
// workloads' CPU time drifts with it; the probe's time, taken next to each
// repetition, tracks that drift, so the end-to-end times are reported at a
// fixed reference speed (main.cpp).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kChaseWords = std::size_t{1} << 16;  // 256 KiB
constexpr std::size_t kHeapSize = 4096;
constexpr std::size_t kSteps = 500000;

std::atomic<std::uint64_t> g_sink{0};

/// One random cycle through kChaseWords slots (Sattolo's shuffle with a
/// fixed generator), so a chase touches the whole 4 MiB in cache-hostile
/// order.
std::vector<std::uint32_t> make_chase() {
  std::vector<std::uint32_t> next(kChaseWords);
  for (std::size_t i = 0; i < kChaseWords; ++i) {
    next[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (std::size_t i = kChaseWords - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  return next;
}

/// The kernel: a dependent chase through `next` interleaved with binary-heap
/// pushes and pops and small allocations, the memory latency, branches and
/// allocator traffic that an event simulator spends its time on.
std::uint64_t kernel(const std::vector<std::uint32_t>& next) {
  std::vector<std::uint64_t> heap;
  heap.reserve(kHeapSize + 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint32_t at = 0;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    at = next[at];
    x = (x ^ at) * 0xbf58476d1ce4e5b9ull;
    x ^= x >> 29;
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > kHeapSize) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      sum += heap.back();
      heap.pop_back();
    }
    if ((i & 63) == 0) {
      auto* block = new std::uint64_t[1 + (x & 31)];
      block[0] = x;
      sum += block[0];
      delete[] block;
    }
  }
  return sum + at;
}

}  // namespace

HostSpeed probe_host_speed(std::size_t threads) {
  static const std::vector<std::uint32_t> next = make_chase();
  threads = std::max<std::size_t>(threads, 1);
  std::vector<double> cpu(threads);
  std::vector<std::exception_ptr> errors(threads);
  const double start = now_s();
  {
    std::vector<std::jthread> pool;  // joined when the scope ends
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&cpu, &errors, t] {
        try {
          const double before = thread_cpu_s();
          g_sink.fetch_add(kernel(next), std::memory_order_relaxed);
          cpu[t] = thread_cpu_s() - before;
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  HostSpeed speed;
  speed.wall_s = now_s() - start;
  speed.cpu_s = median(cpu);
  return speed;
}

}  // namespace perfbench
