#include "wifi/access_point.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::wifi {

using net::kBroadcastId;
using net::Packet;
using net::PacketType;
using net::Protocol;
using sim::Duration;
using sim::expects;

AccessPoint::AccessPoint(sim::Simulator& sim, Channel& channel)
    : sim_(&sim),
      radio_(channel),
      beacon_timer_(sim, [this](std::uint64_t) { send_beacon(); }) {
  radio_.set_receiver([this](Packet&& pkt, const Frame& frame) {
    on_radio_receive(std::move(pkt), frame);
  });
  radio_.set_delivery_fail_handler(
      [this](Packet&& pkt, net::NodeId receiver) {
        on_delivery_failed(std::move(pkt), receiver);
      });
}

void AccessPoint::reset(sim::Rng rng, Config config) {
  rng_ = std::move(rng);
  config_ = config;
  radio_.reset(config.id);
  wired_ = nullptr;
  beacon_timer_.reset(beacon_interval());
  stations_in_use_ = 0;  // associate() recycles the parked slots
  ttl_drops_ = 0;
  beacons_sent_ = 0;
  ps_buffered_total_ = 0;
  ps_polls_served_ = 0;
}

void AccessPoint::attach_wired(net::Link& link) {
  expects(wired_ == nullptr, "AccessPoint::attach_wired called twice");
  wired_ = &link;
}

void AccessPoint::start_beacons(Duration phase) {
  beacon_timer_.start(phase);
}

void AccessPoint::associate(net::NodeId sta, int listen_interval) {
  expects(listen_interval >= 0,
          "AccessPoint::associate listen interval must be >= 0");
  StationState* state = station_state(sta);
  if (state == nullptr) {
    // Recycle a parked slot (its ring keeps warm storage) before growing.
    if (stations_in_use_ == stations_.size()) stations_.emplace_back();
    state = &stations_[stations_in_use_++];
  }
  state->sta = sta;
  state->dozing = false;
  state->listen_interval = listen_interval;
  state->ps_buffer.clear();
}

AccessPoint::StationState* AccessPoint::station_state(net::NodeId sta) {
  for (std::size_t i = 0; i < stations_in_use_; ++i) {
    if (stations_[i].sta == sta) return &stations_[i];
  }
  return nullptr;
}

const AccessPoint::StationState* AccessPoint::station_state(
    net::NodeId sta) const {
  for (std::size_t i = 0; i < stations_in_use_; ++i) {
    if (stations_[i].sta == sta) return &stations_[i];
  }
  return nullptr;
}

bool AccessPoint::station_dozing(net::NodeId sta) const {
  const StationState* state = station_state(sta);
  return state != nullptr && state->dozing;
}

std::size_t AccessPoint::buffered_count(net::NodeId sta) const {
  const StationState* state = station_state(sta);
  return state == nullptr ? 0 : state->ps_buffer.size();
}

int AccessPoint::associated_listen_interval(net::NodeId sta) const {
  const StationState* state = station_state(sta);
  return state == nullptr ? -1 : state->listen_interval;
}

void AccessPoint::send_beacon() {
  Packet beacon = Packet::make(PacketType::wifi_beacon, Protocol::wifi_mgmt,
                               config_.id, kBroadcastId, 96);
  beacon.wifi.tbtt = sim_->now();
  for (std::size_t i = 0; i < stations_in_use_; ++i) {
    const StationState& state = stations_[i];
    if (!state.ps_buffer.empty()) beacon.wifi.tim.push_back(state.sta);
  }
  ++beacons_sent_;
  radio_.enqueue_priority(std::move(beacon), kBroadcastId);
}

void AccessPoint::on_radio_receive(Packet&& packet, const Frame& frame) {
  StationState* state = station_state(frame.transmitter);
  if (state != nullptr) {
    // Track the station's power state from the PM bit of every frame.
    const bool was_dozing = state->dozing;
    if (packet.protocol != Protocol::wifi_mgmt ||
        packet.type == PacketType::wifi_null) {
      state->dozing = packet.wifi.power_mgmt;
    }
    if (was_dozing && !state->dozing) {
      flush_ps_buffer(*state, frame.transmitter);
    }
  }

  switch (packet.type) {
    case PacketType::wifi_null:
      return;  // PM update only
    case PacketType::wifi_ps_poll: {
      if (state == nullptr || state->ps_buffer.empty()) return;
      ++ps_polls_served_;
      Packet buffered = std::move(state->ps_buffer.front());
      state->ps_buffer.pop_front();
      buffered.wifi.more_data = !state->ps_buffer.empty();
      radio_.enqueue(std::move(buffered), frame.transmitter);
      return;
    }
    case PacketType::wifi_beacon:
      return;  // another BSS; ignore
    default:
      route_from_wireless(std::move(packet));
  }
}

void AccessPoint::route_from_wireless(Packet&& packet) {
  // First-hop router: TTL handling (AcuteMon's warm-up packets die here).
  if (packet.ttl <= 1) {
    ++ttl_drops_;
    if (config_.send_ttl_exceeded) {
      Packet exceeded =
          Packet::make(PacketType::icmp_time_exceeded, Protocol::icmp,
                       config_.id, packet.src, 56);
      exceeded.flow_id = packet.flow_id;
      const Duration delay =
          config_.forward_delay +
          rng_.uniform_duration(Duration{}, config_.forward_jitter);
      sim_->schedule_in(delay, [this, ex = std::move(exceeded)]() mutable {
        deliver_to_station(ex.dst, std::move(ex));
      });
    }
    return;
  }
  packet.ttl -= 1;

  expects(wired_ != nullptr, "AccessPoint has no wired link attached");
  const Duration delay =
      config_.forward_delay +
      rng_.uniform_duration(Duration{}, config_.forward_jitter);
  sim_->schedule_in(delay, [this, pkt = std::move(packet)]() mutable {
    wired_->send(config_.id, std::move(pkt));
  });
}

void AccessPoint::receive(Packet&& packet, net::Link* /*ingress*/) {
  // Wired ingress: route toward the wireless side if the destination is an
  // associated station; otherwise it is not for this BSS.
  if (station_state(packet.dst) == nullptr) return;
  if (packet.ttl <= 1) {
    ++ttl_drops_;
    return;
  }
  packet.ttl -= 1;
  const Duration delay =
      config_.forward_delay +
      rng_.uniform_duration(Duration{}, config_.forward_jitter);
  sim_->schedule_in(delay, [this, pkt = std::move(packet)]() mutable {
    deliver_to_station(pkt.dst, std::move(pkt));
  });
}

void AccessPoint::deliver_to_station(net::NodeId sta, Packet&& packet) {
  StationState* state = station_state(sta);
  if (state == nullptr) return;
  if (state->dozing) {
    // Power-save buffering (§3.2.2): hold until the STA polls after a TIM.
    ++ps_buffered_total_;
    state->ps_buffer.push_back(std::move(packet));
    return;
  }
  radio_.enqueue(std::move(packet), sta);
}

void AccessPoint::flush_ps_buffer(StationState& state, net::NodeId sta) {
  while (!state.ps_buffer.empty()) {
    Packet pkt = std::move(state.ps_buffer.front());
    state.ps_buffer.pop_front();
    pkt.wifi.more_data = false;
    radio_.enqueue(std::move(pkt), sta);
  }
}

void AccessPoint::on_delivery_failed(Packet&& packet, net::NodeId receiver) {
  // The radio exhausted retries against a receiver that went to sleep
  // mid-flight; re-route through power-save buffering like a real AP.
  StationState* state = station_state(receiver);
  if (state == nullptr) return;
  state->dozing = true;
  ++ps_buffered_total_;
  state->ps_buffer.push_back(std::move(packet));
}

}  // namespace acute::wifi
