#include "net/link.hpp"

#include <algorithm>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::net {

using sim::Duration;
using sim::expects;
using sim::TimePoint;

void Link::reset(Node& a, Node& b, Duration propagation,
                 double bandwidth_bps) {
  expects(!propagation.is_negative(),
          "Link propagation delay must be non-negative");
  expects(bandwidth_bps > 0, "Link bandwidth must be positive");
  expects(a.id() != b.id(), "Link endpoints must differ");
  a_ = &a;
  b_ = &b;
  propagation_ = propagation;
  bandwidth_bps_ = bandwidth_bps;
  a_to_b_ = Direction{b_, TimePoint{}};
  b_to_a_ = Direction{a_, TimePoint{}};
  delivered_count_ = 0;
}

Link::Direction& Link::direction_from(NodeId from) {
  expects(from == a_->id() || from == b_->id(),
          "Link::send 'from' must be one of the endpoints");
  return from == a_->id() ? a_to_b_ : b_to_a_;
}

void Link::send(NodeId from, Packet&& packet) {
  Direction& dir = direction_from(from);
  const auto serialization =
      Duration::seconds(double(packet.size_bytes) * 8.0 / bandwidth_bps_);
  const TimePoint start = std::max(sim_->now(), dir.busy_until);
  const TimePoint tx_done = start + serialization;
  dir.busy_until = tx_done;
  const TimePoint arrival = tx_done + propagation_;
  Node* to = dir.to;
  sim_->schedule_at(arrival, [this, to, pkt = std::move(packet)]() mutable {
    ++delivered_count_;
    to->receive(std::move(pkt), this);
  });
}

Node& Link::peer_of(NodeId from) const {
  expects(from == a_->id() || from == b_->id(),
          "Link::peer_of requires an endpoint id");
  return from == a_->id() ? *b_ : *a_;
}

}  // namespace acute::net
