#include "phone/kernel.hpp"

#include <utility>

namespace acute::phone {

using net::Packet;
using sim::Duration;
using stack::StampPoint;

void KernelStack::transmit(Packet&& packet) {
  // IP/transport processing down to the device queue.
  const Duration cost =
      profile_->kernel_tx.sample_scaled(rng_, profile_->cpu_scale);
  sim_->schedule_in(cost, [this, pkt = std::move(packet)]() mutable {
    // bpf tap right at dev_queue_xmit: t_k^o.
    stamp(pkt, StampPoint::kernel_send, sim_->now());
    ++tx_packets_;
    pass_down(std::move(pkt));
  });
}

void KernelStack::deliver(Packet&& packet) {
  // bpf tap at netif_rx: t_k^i.
  stamp(packet, StampPoint::kernel_recv, sim_->now());
  ++rx_packets_;

  // Inbound ICMP echo: the kernel answers it itself (this is what lets a
  // *server-side* prober like ping2 [34] measure toward the phone).
  if (packet.type == net::PacketType::icmp_echo_request) {
    ++icmp_echoes_served_;
    Packet reply = Packet::make_response(
        packet, net::PacketType::icmp_echo_reply, packet.size_bytes);
    const Duration icmp_cost =
        profile_->kernel_rx.sample_scaled(rng_, profile_->cpu_scale);
    sim_->schedule_in(icmp_cost, [this, rep = std::move(reply)]() mutable {
      transmit(std::move(rep));
    });
    return;
  }

  // Protocol processing + socket demultiplexing up to the app.
  const Duration cost =
      profile_->kernel_rx.sample_scaled(rng_, profile_->cpu_scale);
  sim_->schedule_in(cost, [this, pkt = std::move(packet)]() mutable {
    pass_up(std::move(pkt));
  });
}

}  // namespace acute::phone
