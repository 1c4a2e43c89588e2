#include "cellular/rrc_radio.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::cellular {

using sim::Duration;
using sim::expects;

RrcRadioLayer::RrcRadioLayer(sim::Simulator& sim, RrcMachine& rrc)
    : sim_(&sim), rrc_(&rrc) {}

void RrcRadioLayer::transmit(net::Packet&& packet) {
  expects(static_cast<bool>(egress_),
          "RrcRadioLayer::transmit requires an egress hand-off");
  const Duration promotion = rrc_->request_transmit(packet.size_bytes);
  const Duration uplink = rrc_->state_latency();
  sim_->schedule_in(promotion + uplink,
                    [this, pkt = std::move(packet)]() mutable {
                      ++uplink_;
                      egress_(std::move(pkt));
                    });
}

void RrcRadioLayer::deliver(net::Packet&& packet) {
  rrc_->on_receive();
  const Duration downlink = rrc_->state_latency();
  sim_->schedule_in(downlink, [this, pkt = std::move(packet)]() mutable {
    ++downlink_;
    pass_up(std::move(pkt));
  });
}

}  // namespace acute::cellular
