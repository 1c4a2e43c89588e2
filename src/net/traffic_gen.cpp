#include "net/traffic_gen.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::net {

using sim::Duration;
using sim::expects;

UdpCbrSource::UdpCbrSource(sim::Simulator& sim, TransmitFn transmit)
    : transmit_(std::move(transmit)), timer_(sim, [this](std::uint64_t) {
        Packet pkt = Packet::make(PacketType::udp_data, Protocol::udp,
                                  config_.src, config_.dst,
                                  config_.datagram_bytes);
        pkt.flow_id = config_.flow_id;
        ++packets_sent_;
        transmit_(std::move(pkt));
      }) {
  expects(static_cast<bool>(transmit_), "UdpCbrSource requires a transmit fn");
}

void UdpCbrSource::reset(sim::Rng rng, Config config) {
  expects(config.rate_mbps > 0, "UdpCbrSource rate must be positive");
  expects(config.datagram_bytes > 0, "UdpCbrSource datagram must be > 0B");
  rng_ = std::move(rng);
  config_ = config;
  timer_.reset(Duration::seconds(double(config.datagram_bytes) * 8.0 /
                                 (config.rate_mbps * 1e6)));
  packets_sent_ = 0;
}

void UdpCbrSource::start() {
  // Random phase in the first period avoids lockstep between flows.
  const Duration phase = rng_.uniform_duration(Duration{}, timer_.period());
  timer_.start(phase);
}

void UdpCbrSource::stop() { timer_.stop(); }

void IperfLoadGenerator::reset(sim::Rng rng, NodeId src, NodeId dst,
                               std::size_t connections,
                               double per_flow_mbps) {
  expects(connections > 0, "IperfLoadGenerator requires >= 1 connection");
  flows_.resize(connections);
  for (std::size_t i = 0; i < connections; ++i) {
    if (!flows_[i]) {
      flows_[i] = std::make_unique<UdpCbrSource>(*sim_, transmit_);
    }
    UdpCbrSource::Config config;
    config.src = src;
    config.dst = dst;
    config.flow_id = 1000 + static_cast<std::uint32_t>(i);
    config.rate_mbps = per_flow_mbps;
    flows_[i]->reset(rng.fork(i), config);
  }
}

void IperfLoadGenerator::start() {
  for (auto& flow : flows_) flow->start();
}

void IperfLoadGenerator::stop() {
  for (auto& flow : flows_) flow->stop();
}

std::uint64_t IperfLoadGenerator::packets_sent() const {
  std::uint64_t total = 0;
  for (const auto& flow : flows_) total += flow->packets_sent();
  return total;
}

double IperfLoadGenerator::offered_load_mbps() const {
  double total = 0;
  for (const auto& flow : flows_) total += flow->config().rate_mbps;
  return total;
}

}  // namespace acute::net
