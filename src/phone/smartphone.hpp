// The composed handset: a PhoneProfile plus a StackPipeline.
//
// A WiFi phone runs the five stack layers the paper dissects —
//
//   exec-env -> kernel -> driver -> sdio-bus -> station
//
// — while a cellular phone bottoms out in the RRC-gated radio instead
// (§4.1's cellular extension):
//
//   exec-env -> kernel -> rrc-radio
//
// Measurement apps talk to the socket-like flow API either way; everything
// below reproduces the latency structure the paper decomposes into
// du/dk/dv/dn (WiFi) or the RRC promotion/state latencies (cellular).
// The Smartphone itself no longer wires layer-to-layer callbacks: the
// pipeline owns the descent/ascent plumbing, and the phone only contributes
// identity (node id), the background system chatter, and subsystem access
// for ablations.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "cellular/rrc.hpp"
#include "cellular/rrc_radio.hpp"
#include "net/packet.hpp"
#include "phone/driver.hpp"
#include "phone/kernel.hpp"
#include "phone/profile.hpp"
#include "phone/runtime.hpp"
#include "phone/sdio_bus.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stack/stack_pipeline.hpp"
#include "wifi/channel.hpp"
#include "wifi/station.hpp"

namespace acute::phone {

/// Which radio a phone's pipeline bottoms out in.
enum class RadioKind { wifi, cellular };

[[nodiscard]] const char* to_string(RadioKind kind);

class Smartphone {
 public:
  /// Binds a WiFi phone to `sim` and `channel`: exec-env -> kernel ->
  /// driver -> sdio-bus -> station. reset() initializes it.
  Smartphone(sim::Simulator& sim, wifi::Channel& channel);
  /// Builds a WiFi phone with the given profile, attached to `channel` and
  /// associated with the AP at `ap_id`.
  Smartphone(sim::Simulator& sim, wifi::Channel& channel, sim::Rng rng,
             PhoneProfile profile, net::NodeId id, net::NodeId ap_id)
      : Smartphone(sim, channel) {
    reset(std::move(rng), std::move(profile), id, ap_id);
  }

  /// Binds a cellular phone to `sim`: exec-env -> kernel -> rrc-radio.
  /// reset() initializes it.
  explicit Smartphone(sim::Simulator& sim);
  /// Builds a cellular phone. The radio's egress must be wired to the
  /// serving gateway (testbed::CellularGateway does this on attach);
  /// `gateway_id` is where system chatter is aimed.
  Smartphone(sim::Simulator& sim, sim::Rng rng, PhoneProfile profile,
             net::NodeId id, net::NodeId gateway_id,
             const cellular::RrcConfig& rrc_config)
      : Smartphone(sim) {
    reset(std::move(rng), std::move(profile), id, gateway_id, rrc_config);
  }

  Smartphone(const Smartphone&) = delete;
  Smartphone& operator=(const Smartphone&) = delete;

  /// Initializes a WiFi phone: every subsystem resets in build order
  /// (station, bus, driver, kernel, exec-env), so the events they schedule
  /// (doze timer, bus watchdog) precede the first system chatter. The
  /// pipeline keeps its layers and drops its handlers. Contract violation
  /// on a cellular phone.
  void reset(sim::Rng rng, PhoneProfile profile, net::NodeId id,
             net::NodeId ap_id);

  /// Cellular counterpart. The radio egress is cleared: the gateway
  /// re-wires it on attach. Contract violation on a WiFi phone.
  void reset(sim::Rng rng, PhoneProfile profile, net::NodeId id,
             net::NodeId gateway_id, const cellular::RrcConfig& rrc_config);

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const PhoneProfile& profile() const { return profile_; }
  [[nodiscard]] RadioKind radio_kind() const { return radio_kind_; }

  /// App-level receive callback, demultiplexed by the packet's flow id.
  /// `mode` determines the runtime whose receive overhead the app pays.
  using AppRxFn = ExecEnvLayer::AppRxFn;
  void register_flow(std::uint32_t flow_id, AppRxFn handler,
                     ExecMode mode = ExecMode::native_c) {
    exec_.register_flow(flow_id, std::move(handler), mode);
  }
  void unregister_flow(std::uint32_t flow_id) { exec_.unregister_flow(flow_id); }

  /// Allocates a flow id no other app on this phone uses (wrap-safe).
  [[nodiscard]] std::uint32_t allocate_flow_id() {
    return exec_.allocate_flow_id();
  }

  /// Sends a packet from an app. Stamps app_send (t_u^o) now; the packet
  /// then descends the pipeline.
  void send(net::Packet&& packet, ExecMode mode);

  // Subsystem access (ablations, instrumentation, tests).
  [[nodiscard]] stack::StackPipeline& pipeline() { return pipeline_; }
  [[nodiscard]] ExecEnvLayer& exec_env() { return exec_; }
  [[nodiscard]] KernelStack& kernel() { return kernel_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  // WiFi-stack subsystems (contract violation on a cellular phone).
  [[nodiscard]] wifi::Station& station();
  [[nodiscard]] SdioBus& bus();
  [[nodiscard]] WnicDriver& driver();
  // Cellular-stack subsystems (contract violation on a WiFi phone).
  [[nodiscard]] cellular::RrcMachine& rrc();
  [[nodiscard]] cellular::RrcRadioLayer& cellular_radio();

  /// Packets emitted by the phone's own system services so far.
  [[nodiscard]] std::uint64_t system_packets_sent() const {
    return system_packets_;
  }
  /// Disables/enables the system background chatter (airplane-lab mode).
  void set_system_traffic_enabled(bool enabled) {
    system_traffic_enabled_ = enabled;
  }

 private:
  /// The one reset body behind both public overloads; `rrc_config` is
  /// null on a WiFi phone.
  void reset_stack(sim::Rng rng, PhoneProfile&& profile, net::NodeId id,
                   net::NodeId peer_id, const cellular::RrcConfig* rrc_config);
  void schedule_system_traffic();

  sim::Simulator* sim_;
  PhoneProfile profile_;
  net::NodeId id_ = 0;
  RadioKind radio_kind_;
  sim::Rng rng_{0};
  // WiFi bottom (null on cellular phones).
  std::unique_ptr<wifi::Station> station_;
  std::unique_ptr<SdioBus> bus_;
  std::unique_ptr<WnicDriver> driver_;
  // Cellular bottom (null on WiFi phones).
  std::unique_ptr<cellular::RrcMachine> rrc_;
  std::unique_ptr<cellular::RrcRadioLayer> rrc_radio_;
  KernelStack kernel_;
  ExecEnvLayer exec_;
  stack::StackPipeline pipeline_;
  net::NodeId ap_id_ = 0;
  bool system_traffic_enabled_ = true;
  std::uint64_t system_packets_ = 0;
};

}  // namespace acute::phone
