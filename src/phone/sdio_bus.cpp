#include "phone/sdio_bus.hpp"

#include <algorithm>
#include <utility>

namespace acute::phone {

using sim::Duration;
using sim::TimePoint;

SdioBus::SdioBus(sim::Simulator& sim)
    : sim_(&sim),
      watchdog_(sim, [this](std::uint64_t) { on_watchdog_tick(); }) {}

void SdioBus::reset(sim::Rng rng, const PhoneProfile& profile) {
  rng_ = std::move(rng);
  wake_tx_ = profile.bus_wake_tx;
  wake_rx_ = profile.bus_wake_rx;
  clk_request_ = profile.bus_clk_request;
  clk_idle_threshold_ = profile.bus_clk_idle_threshold;
  transfer_mbps_ = profile.bus_transfer_mbps;
  idletime_ticks_ = profile.bus_idletime_ticks;
  sleep_enabled_ = true;
  state_ = State::awake;
  idle_ticks_ = 0;
  wake_complete_at_ = TimePoint{};
  watchdog_.reset(profile.bus_watchdog);
  sleep_count_ = 0;
  wake_count_ = 0;
  last_activity_ = sim_->now();
  watchdog_.start(rng_.uniform_duration(Duration{}, profile.bus_watchdog));
}

void SdioBus::on_watchdog_tick() {
  if (!sleep_enabled_ || state_ == State::sleeping) return;
  if (sim_->now() < wake_complete_at_) return;  // still waking up
  if (sim_->now() - last_activity_ < watchdog_.period()) {
    idle_ticks_ = 0;
    return;
  }
  if (++idle_ticks_ >= idletime_ticks_) {
    state_ = State::sleeping;
    idle_ticks_ = 0;
    ++sleep_count_;
  }
}

void SdioBus::transmit(net::Packet&& packet) {
  const Duration transfer = transfer_time(packet.size_bytes);
  sim_->schedule_in(transfer, [this, pkt = std::move(packet)]() mutable {
    activity();
    pass_down(std::move(pkt));
  });
}

void SdioBus::deliver(net::Packet&& packet) { pass_up(std::move(packet)); }

Duration SdioBus::acquire(Direction direction) {
  const TimePoint now = sim_->now();
  if (state_ == State::sleeping) {
    const LatencyDist& dist =
        direction == Direction::transmit ? wake_tx_ : wake_rx_;
    const Duration wake = dist.sample(rng_);
    state_ = State::awake;
    ++wake_count_;
    wake_complete_at_ = now + wake;
    last_activity_ = wake_complete_at_;
    return wake;
  }
  if (now < wake_complete_at_) {
    // A concurrent request already started the wake-up; join it.
    return wake_complete_at_ - now;
  }
  if (now - last_activity_ >= clk_idle_threshold_) {
    // Awake but the backplane clock was dropped; request HT clock.
    return clk_request_.sample(rng_);
  }
  return Duration{};
}

void SdioBus::activity() {
  last_activity_ = sim_->now();
  idle_ticks_ = 0;
}

Duration SdioBus::transfer_time(std::uint32_t bytes) const {
  return Duration::micros(double(bytes) * 8.0 / transfer_mbps_);
}

void SdioBus::set_sleep_enabled(bool enabled) {
  sleep_enabled_ = enabled;
  if (!enabled && state_ == State::sleeping) {
    state_ = State::awake;
    idle_ticks_ = 0;
  }
}

}  // namespace acute::phone
