// The cellular radio as a StackLayer — the alternate bottom of a phone
// pipeline (§4.1: AcuteMon "can be easily extended to cellular environment,
// mitigating the effect of RRC state transition").
//
// Where the WiFi stack bottoms out in SdioBus + Station, a cellular stack
// bottoms out in this layer: the downward path pays the RRC promotion delay
// plus the current state's uplink latency before the packet leaves through
// the egress hand-off (the "air" of the cellular world); the upward path
// marks downlink activity on the RRC machine and pays the state latency
// before the packet ascends.
#pragma once

#include <cstdint>
#include <functional>

#include "cellular/rrc.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "stack/stack_layer.hpp"

namespace acute::cellular {

class RrcRadioLayer : public stack::StackLayer {
 public:
  /// Uplink hand-off: invoked when a packet actually leaves the radio
  /// (after promotion + state latency). Plays the role the wireless channel
  /// plays for wifi::Station.
  using EgressFn = std::function<void(net::Packet&&)>;

  /// Binds the layer to `sim` and the RRC machine that gates it.
  RrcRadioLayer(sim::Simulator& sim, RrcMachine& rrc);

  void set_egress(EgressFn egress) { egress_ = std::move(egress); }

  /// Initializes the per-scenario state: no egress hand-off (the gateway
  /// sets it on attach), zero counters. The RRC machine resets on its own.
  void reset() {
    egress_ = nullptr;
    uplink_ = 0;
    downlink_ = 0;
  }

  // StackLayer.
  [[nodiscard]] const char* layer_name() const override { return "rrc-radio"; }
  /// Downward: RRC promotion (state transition + demotion-timer reset) and
  /// the uplink state latency, then the egress hand-off.
  void transmit(net::Packet&& packet) override;
  /// Upward: a downlink packet from the core network. Resets the inactivity
  /// timers and pays the current state's latency before ascending.
  void deliver(net::Packet&& packet) override;

  [[nodiscard]] RrcMachine& rrc() { return *rrc_; }
  [[nodiscard]] std::uint64_t uplink_packets() const { return uplink_; }
  [[nodiscard]] std::uint64_t downlink_packets() const { return downlink_; }

 private:
  sim::Simulator* sim_;
  RrcMachine* rrc_;
  EgressFn egress_;
  std::uint64_t uplink_ = 0;
  std::uint64_t downlink_ = 0;
};

}  // namespace acute::cellular
