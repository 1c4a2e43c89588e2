#include "net/netem.hpp"

#include <algorithm>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::net {

using sim::Duration;
using sim::expects;
using sim::TimePoint;

NetemQdisc::NetemQdisc(sim::Simulator& sim, ForwardFn forward)
    : sim_(&sim), forward_(std::move(forward)) {
  expects(static_cast<bool>(forward_), "NetemQdisc requires a forward hook");
}

void NetemQdisc::set_loss(double probability) {
  expects(probability >= 0.0 && probability < 1.0,
          "NetemQdisc loss probability must be in [0, 1)");
  loss_ = probability;
}

void NetemQdisc::enqueue(Packet&& packet) {
  if (loss_ > 0.0 && rng_.bernoulli(loss_)) {
    ++dropped_count_;
    return;
  }
  Duration delay = base_;
  if (!jitter_.is_zero()) {
    delay += rng_.uniform_duration(-jitter_, jitter_);
    if (delay.is_negative()) delay = Duration{};
  }
  TimePoint release = sim_->now() + delay;
  if (prevent_reorder_) {
    release = std::max(release, last_release_);
  }
  last_release_ = release;
  sim_->schedule_at(release, [this, pkt = std::move(packet)]() mutable {
    forward_(std::move(pkt));
  });
}

}  // namespace acute::net
