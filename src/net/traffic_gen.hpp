// iPerf-like constant-bit-rate UDP sources for cross traffic (§4.3: ten
// connections at 2.5 Mbit/s each, enough to congest an 802.11g WLAN).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace acute::net {

/// A single CBR flow. Emits fixed-size UDP datagrams at a constant rate with
/// a small randomized phase so parallel flows do not phase-lock.
class UdpCbrSource {
 public:
  using TransmitFn = std::function<void(Packet&&)>;

  struct Config {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t flow_id = 0;
    double rate_mbps = 2.5;
    std::uint32_t datagram_bytes = packet_size::udp_iperf;
  };

  /// Binds the source to `sim` and its `transmit` hand-off; reset()
  /// initializes it.
  UdpCbrSource(sim::Simulator& sim, TransmitFn transmit);
  UdpCbrSource(sim::Simulator& sim, sim::Rng rng, Config config,
               TransmitFn transmit)
      : UdpCbrSource(sim, std::move(transmit)) {
    reset(std::move(rng), config);
  }

  UdpCbrSource(const UdpCbrSource&) = delete;
  UdpCbrSource& operator=(const UdpCbrSource&) = delete;

  /// Initializes the per-scenario state: the flow, its rate (the timer
  /// period), stopped, zero packets sent.
  void reset(sim::Rng rng, Config config);

  /// Starts emitting datagrams (first one within one inter-packet period).
  void start();
  void stop();

  [[nodiscard]] bool running() const { return timer_.running(); }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  sim::Rng rng_{0};
  Config config_;
  TransmitFn transmit_;
  sim::PeriodicTimer timer_;
  std::uint64_t packets_sent_ = 0;
};

/// The iPerf client of §4.3: N parallel CBR flows from one host.
class IperfLoadGenerator {
 public:
  /// Binds the generator to `sim` and the hand-off every flow transmits
  /// through; reset() initializes it.
  IperfLoadGenerator(sim::Simulator& sim, UdpCbrSource::TransmitFn transmit)
      : sim_(&sim), transmit_(std::move(transmit)) {}
  IperfLoadGenerator(sim::Simulator& sim, sim::Rng rng, NodeId src, NodeId dst,
                     std::size_t connections, double per_flow_mbps,
                     UdpCbrSource::TransmitFn transmit)
      : IperfLoadGenerator(sim, std::move(transmit)) {
    reset(std::move(rng), src, dst, connections, per_flow_mbps);
  }

  /// Initializes `connections` stopped flows from `src` to `dst`, flow i
  /// on rng fork i. Existing flow objects are reused; only missing ones
  /// are built.
  void reset(sim::Rng rng, NodeId src, NodeId dst, std::size_t connections,
             double per_flow_mbps);

  void start();
  void stop();

  [[nodiscard]] std::size_t connection_count() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t packets_sent() const;
  [[nodiscard]] double offered_load_mbps() const;

 private:
  sim::Simulator* sim_;
  UdpCbrSource::TransmitFn transmit_;
  std::vector<std::unique_ptr<UdpCbrSource>> flows_;
};

}  // namespace acute::net
