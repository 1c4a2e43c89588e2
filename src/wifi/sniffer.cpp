#include "wifi/sniffer.hpp"

#include <utility>

namespace acute::wifi {

using sim::Duration;

void Sniffer::reset(const std::string& name, sim::Rng rng,
                    Duration timestamp_noise) {
  name_ = name;
  rng_ = std::move(rng);
  noise_ = timestamp_noise;
  observer_ = nullptr;
}

void Sniffer::on_frame(const Frame& frame) {
  // The draw is unconditional: pping attaches after settle and warm-up, and
  // skipping the draws before that would shift its noise stream.
  sim::TimePoint time = frame.tx_start;
  if (!noise_.is_zero()) time += rng_.uniform_duration(-noise_, noise_);
  if (observer_ != nullptr) {
    // The observer gets the sniffer's clock, not the true tx_start: a
    // capture-point estimator inherits this vantage's noise.
    observer_->on_capture(frame.packet, frame.transmitter, frame.receiver,
                          time, frame.collided);
  }
}

}  // namespace acute::wifi
