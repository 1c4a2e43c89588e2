#include "cellular/rrc.hpp"

#include <algorithm>
#include <utility>

namespace acute::cellular {

using sim::Duration;
using sim::TimePoint;

const char* to_string(RrcState state) {
  switch (state) {
    case RrcState::idle:
      return "IDLE";
    case RrcState::cell_fach:
      return "CELL_FACH";
    case RrcState::cell_dch:
      return "CELL_DCH";
  }
  return "?";
}

RrcMachine::RrcMachine(sim::Simulator& sim)
    : sim_(&sim), demotion_timer_(sim, [this] { demote(); }) {}

Duration RrcMachine::sample_promotion(Duration mean) {
  const Duration jitter = rng_.uniform_duration(-config_.promotion_jitter,
                                                config_.promotion_jitter);
  Duration cost = mean + jitter;
  if (cost.is_negative()) cost = Duration{};
  return cost;
}

Duration RrcMachine::request_transmit(std::uint32_t bytes) {
  const TimePoint now = sim_->now();
  Duration wait{};

  switch (state_) {
    case RrcState::cell_dch:
      // Possibly still completing a previous promotion.
      wait = std::max(Duration{}, promotion_done_ - now);
      break;
    case RrcState::cell_fach:
      if (bytes <= config_.fach_size_threshold) {
        wait = Duration{};  // rides the shared channel
      } else {
        wait = sample_promotion(config_.fach_to_dch);
        state_ = RrcState::cell_dch;
        promotion_done_ = now + wait;
        ++promotions_;
      }
      break;
    case RrcState::idle:
      wait = sample_promotion(config_.idle_to_dch);
      state_ = RrcState::cell_dch;
      promotion_done_ = now + wait;
      ++promotions_;
      break;
  }
  // Activity (the transmission) restarts the inactivity countdown from the
  // moment the radio is actually usable.
  sim_->schedule_in(wait, [this] { arm_demotion(); });
  return wait;
}

void RrcMachine::on_receive() { arm_demotion(); }

void RrcMachine::arm_demotion() {
  switch (state_) {
    case RrcState::cell_dch:
      demotion_timer_.restart(config_.dch_inactivity);
      break;
    case RrcState::cell_fach:
      demotion_timer_.restart(config_.fach_inactivity);
      break;
    case RrcState::idle:
      demotion_timer_.cancel();
      break;
  }
}

void RrcMachine::demote() {
  ++demotions_;
  switch (state_) {
    case RrcState::cell_dch:
      state_ = RrcState::cell_fach;
      demotion_timer_.restart(config_.fach_inactivity);
      break;
    case RrcState::cell_fach:
      state_ = RrcState::idle;
      break;
    case RrcState::idle:
      break;
  }
}

Duration RrcMachine::state_latency() const {
  switch (state_) {
    case RrcState::cell_dch:
      return config_.dch_latency;
    case RrcState::cell_fach:
      return config_.fach_latency;
    case RrcState::idle:
      return config_.fach_latency;  // first packets effectively pay FACH
  }
  return Duration{};
}

}  // namespace acute::cellular
