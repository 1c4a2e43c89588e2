#include "phone/smartphone.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::phone {

using net::Packet;
using sim::Duration;
using sim::expects;

namespace {
wifi::Station::Config station_config(const PhoneProfile& profile,
                                     net::NodeId id, net::NodeId ap_id) {
  wifi::Station::Config config;
  config.id = id;
  config.ap = ap_id;
  config.psm_timeout = profile.psm_timeout;
  config.psm_tick = profile.psm_tick;
  config.associated_listen_interval = profile.associated_listen_interval;
  config.actual_listen_interval = 0;  // Table 4: every handset uses 0
  config.beacon_miss_probability = profile.beacon_miss_probability;
  return config;
}
}  // namespace

const char* to_string(RadioKind kind) {
  switch (kind) {
    case RadioKind::wifi:
      return "wifi";
    case RadioKind::cellular:
      return "cellular";
  }
  return "?";
}

Smartphone::Smartphone(sim::Simulator& sim, wifi::Channel& channel)
    : sim_(&sim),
      radio_kind_(RadioKind::wifi),
      station_(std::make_unique<wifi::Station>(sim, channel)),
      bus_(std::make_unique<SdioBus>(sim)),
      driver_(std::make_unique<WnicDriver>(sim, *bus_)),
      kernel_(sim),
      exec_(sim),
      pipeline_(sim) {
  pipeline_.append(exec_);
  pipeline_.append(kernel_);
  pipeline_.append(*driver_);
  pipeline_.append(*bus_);
  pipeline_.append(*station_);
}

Smartphone::Smartphone(sim::Simulator& sim)
    : sim_(&sim),
      radio_kind_(RadioKind::cellular),
      rrc_(std::make_unique<cellular::RrcMachine>(sim)),
      rrc_radio_(std::make_unique<cellular::RrcRadioLayer>(sim, *rrc_)),
      kernel_(sim),
      exec_(sim),
      pipeline_(sim) {
  pipeline_.append(exec_);
  pipeline_.append(kernel_);
  pipeline_.append(*rrc_radio_);
}

void Smartphone::reset(sim::Rng rng, PhoneProfile profile, net::NodeId id,
                       net::NodeId ap_id) {
  expects(radio_kind_ == RadioKind::wifi,
          "Smartphone::reset(wifi) on a cellular phone");
  reset_stack(std::move(rng), std::move(profile), id, ap_id, nullptr);
}

void Smartphone::reset(sim::Rng rng, PhoneProfile profile, net::NodeId id,
                       net::NodeId gateway_id,
                       const cellular::RrcConfig& rrc_config) {
  expects(radio_kind_ == RadioKind::cellular,
          "Smartphone::reset(cellular) on a WiFi phone");
  reset_stack(std::move(rng), std::move(profile), id, gateway_id, &rrc_config);
}

void Smartphone::reset_stack(sim::Rng rng, PhoneProfile&& profile,
                             net::NodeId id, net::NodeId peer_id,
                             const cellular::RrcConfig* rrc_config) {
  profile_ = std::move(profile);
  id_ = id;
  ap_id_ = peer_id;
  rng_ = rng.fork("smartphone");
  if (radio_kind_ == RadioKind::wifi) {
    station_->reset(rng.fork("station"), station_config(profile_, id, peer_id));
    bus_->reset(rng.fork("bus"), profile_);
    driver_->reset(rng.fork("driver"), profile_);
  } else {
    rrc_->reset(rng.fork("rrc"), *rrc_config);
    rrc_radio_->reset();
  }
  kernel_.reset(rng.fork("kernel"), profile_);
  exec_.reset(rng.fork("env"), profile_);
  pipeline_.set_app_handler(nullptr);
  pipeline_.set_stamp_observer(nullptr);
  system_traffic_enabled_ = true;
  system_packets_ = 0;
  if (profile_.system_traffic_mean_interval > Duration{}) {
    schedule_system_traffic();
  }
}

wifi::Station& Smartphone::station() {
  expects(station_ != nullptr, "Smartphone::station on a cellular phone");
  return *station_;
}

SdioBus& Smartphone::bus() {
  expects(bus_ != nullptr, "Smartphone::bus on a cellular phone");
  return *bus_;
}

WnicDriver& Smartphone::driver() {
  expects(driver_ != nullptr, "Smartphone::driver on a cellular phone");
  return *driver_;
}

cellular::RrcMachine& Smartphone::rrc() {
  expects(rrc_ != nullptr, "Smartphone::rrc on a WiFi phone");
  return *rrc_;
}

cellular::RrcRadioLayer& Smartphone::cellular_radio() {
  expects(rrc_radio_ != nullptr,
          "Smartphone::cellular_radio on a WiFi phone");
  return *rrc_radio_;
}

void Smartphone::schedule_system_traffic() {
  // Sync services and keep-alives chatter at Poisson intervals. The
  // packets die at the gateway (TTL = 1) but wake the bus and the radio on
  // the way out — the source of Table 3's occasional already-awake probes.
  const Duration next = Duration::seconds(rng_.exponential(
      profile_.system_traffic_mean_interval.to_seconds()));
  sim_->schedule_in(next, [this] {
    if (system_traffic_enabled_) {
      Packet chatter =
          Packet::make(net::PacketType::udp_data, net::Protocol::udp, id_,
                       ap_id_, profile_.system_traffic_bytes);
      chatter.ttl = 1;
      chatter.flow_id = 0;  // no app bound; any response is dropped
      ++system_packets_;
      send(std::move(chatter), ExecMode::dalvik);
    }
    schedule_system_traffic();
  });
}

void Smartphone::send(Packet&& packet, ExecMode mode) {
  packet.src = id_;
  exec_.send(std::move(packet), mode);
}

}  // namespace acute::phone
