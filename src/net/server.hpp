// Wired hosts of the testbed: the measurement server (ICMP / TCP / HTTP
// responder behind a netem qdisc) and the load server's UDP sink.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "net/link.hpp"
#include "net/netem.hpp"
#include "net/node.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace acute::net {

/// The measurement server of Fig. 2.
///
/// Responds to ICMP echo (ping), TCP SYN on an open port (SYN-ACK), TCP SYN
/// on a closed port (RST, for the Java-ping/InetAddress method), and HTTP
/// requests. All responses leave through a NetemQdisc, which emulates the
/// paper's `tc netem delay` on the server interface.
class EchoServer : public Node {
 public:
  /// Binds the server to `sim`; reset() initializes it.
  explicit EchoServer(sim::Simulator& sim);
  EchoServer(sim::Simulator& sim, sim::Rng rng, NodeId id) : EchoServer(sim) {
    reset(std::move(rng), id);
  }

  /// Initializes the per-scenario state, the netem qdisc's included (its
  /// rng is the "netem" fork of `rng`): no link, default service time and
  /// HTTP size, open TCP port, no observer, zero counters. The shared HTTP
  /// body buffer is kept: it is rebuilt lazily, only when the configured
  /// size changes.
  void reset(sim::Rng rng, NodeId id);

  /// Connects the server's NIC. Must be called exactly once before traffic.
  void attach_link(Link& link);

  void receive(Packet&& packet, Link* ingress) override;
  [[nodiscard]] NodeId id() const override { return id_; }

  /// The emulated extra delay on the server's egress (tc netem).
  [[nodiscard]] NetemQdisc& netem() { return netem_; }

  /// Mean request service time (defaults to 40 us — the paper cites
  /// microsecond-level server-side processing for TCP probes [24]).
  void set_service_time(sim::Duration mean) { service_mean_ = mean; }

  /// When true, TCP SYNs are answered with RST instead of SYN-ACK
  /// (emulates probing a closed port, as MobiPerf's InetAddress does).
  void set_tcp_port_closed(bool closed) { tcp_port_closed_ = closed; }

  /// Server-side measurement support (ping2 [34] runs *on* the server):
  /// originates a packet through the netem-shaped egress...
  void originate(Packet&& packet) { netem_.enqueue(std::move(packet)); }
  /// ...and observes otherwise-unhandled inbound packets (echo replies).
  using ObserverFn = std::function<void(const Packet&)>;
  void set_packet_observer(ObserverFn observer) {
    observer_ = std::move(observer);
  }

  /// HTTP response body size.
  void set_http_response_size(std::uint32_t bytes) { http_size_ = bytes; }

  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_;
  }

 private:
  void respond(const Packet& request);

  sim::Simulator* sim_;
  sim::Rng rng_{0};
  NodeId id_ = 0;
  Link* link_ = nullptr;
  NetemQdisc netem_;
  sim::Duration service_mean_ = sim::Duration::micros(40);
  bool tcp_port_closed_ = false;
  ObserverFn observer_;
  std::uint32_t http_size_ = packet_size::http_response;
  /// Shared immutable HTTP body attached to every http_response.
  PayloadBuffer http_body_;
  std::uint64_t requests_served_ = 0;
};

/// UDP sink that accounts received traffic (the load server of Fig. 2 with
/// an iPerf server on it).
class UdpSink : public Node {
 public:
  /// Binds the sink to `sim`; reset() initializes it.
  explicit UdpSink(sim::Simulator& sim) : sim_(&sim) {}
  UdpSink(sim::Simulator& sim, NodeId id) : UdpSink(sim) { reset(id); }

  /// Initializes the per-scenario state: zero counters, window at zero.
  void reset(NodeId id) {
    id_ = id;
    packets_ = 0;
    bytes_ = 0;
    window_start_ = sim::TimePoint{};
  }

  void receive(Packet&& packet, Link* ingress) override;
  [[nodiscard]] NodeId id() const override { return id_; }

  [[nodiscard]] std::uint64_t packets_received() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_; }

  /// Average goodput over the window since `since`, in Mbit/s.
  [[nodiscard]] double throughput_mbps(sim::TimePoint since) const;

  /// Resets counters and marks the start of a measurement window.
  void reset_window();
  [[nodiscard]] sim::TimePoint window_start() const { return window_start_; }

 private:
  sim::Simulator* sim_;
  NodeId id_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  sim::TimePoint window_start_;
};

}  // namespace acute::net
