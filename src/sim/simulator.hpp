// The discrete-event simulation engine.
//
// Single-threaded and fully deterministic: events fire in (time, insertion)
// order, and all model code runs inside event callbacks. The "concurrent
// threads" of the paper's AcuteMon (background-traffic thread, measurement
// thread) are cooperating processes scheduled on this engine.
//
// Scheduling is allocation-free in steady state: schedule_at/schedule_in
// build the closure directly into an EventClosure inline buffer in the event
// queue's slot pool (a closure too large for it does not compile), so each
// campaign shard recycles its own memory instead of hammering the global
// allocator from many workers. Events fire only through the queue's
// fire_one/fire_one_before, which run(), run_until() and step() drive.
#pragma once

#include <cstdint>
#include <type_traits>

#include "sim/contracts.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace acute::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (must not be in the past).
  template <typename F>
  EventHandle schedule_at(TimePoint when, F&& fn) {
    expects(when >= now_,
            "Simulator::schedule_at time must not be in the past");
    return queue_.push(when, std::forward<F>(fn));
  }

  /// Schedules `fn` to run `delay` from now (delay must be non-negative).
  template <typename F>
  EventHandle schedule_in(Duration delay, F&& fn) {
    expects(!delay.is_negative(),
            "Simulator::schedule_in delay must be non-negative");
    return queue_.push(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue drains. Returns the number of events fired.
  std::size_t run();

  /// Runs events with fire time <= `deadline`, then advances the clock to
  /// `deadline` (even if the queue drained earlier). Returns events fired.
  std::size_t run_until(TimePoint deadline);

  /// Convenience: run_until(now() + span).
  std::size_t run_for(Duration span);

  /// Fires exactly one event if any is pending. Returns true if one fired.
  bool step();

  /// Number of live pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events fired over this simulator's lifetime (work accounting for
  /// campaign throughput benches).
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }

  /// The underlying event queue (compaction / slot-pool introspection).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  /// Returns the simulator to its freshly-constructed observable state
  /// (time zero, zero events fired, default event limit) while keeping the
  /// event queue's warm storage. A reused simulator is indistinguishable
  /// from a new one to model code: pending events are destroyed, stale
  /// handles are inert, and tie-breaking restarts from sequence zero.
  void reset() {
    queue_.reset();
    now_ = TimePoint{};
    events_fired_ = 0;
    event_limit_ = kDefaultEventLimit;
  }

  /// Safety valve: run()/run_until() throw after this many events in a
  /// single call, catching accidental infinite self-rescheduling loops.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// The event limit a freshly-constructed (or reset) simulator starts with.
  static constexpr std::uint64_t kDefaultEventLimit = 500'000'000;

 private:
  // The single clock-advance step every fire path goes through (passed to
  // EventQueue::fire_one* as the PreFire hook).
  void advance_clock(TimePoint when) {
    ensures(when >= now_, "event queue returned an event from the past");
    now_ = when;
    ++events_fired_;
  }

  EventQueue queue_;
  TimePoint now_;
  std::uint64_t events_fired_ = 0;
  std::uint64_t event_limit_ = kDefaultEventLimit;
};

}  // namespace acute::sim
