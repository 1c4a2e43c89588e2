// Kernel network stack model: syscall-to-driver on the way down and
// netif_rx-to-socket on the way up, with a bpf/tcpdump tap at the driver
// boundary — the t_k vantage point of Fig. 1 ("the kernel timestamps can be
// recorded with bpf and libpcap").
#pragma once

#include <cstdint>
#include <utility>

#include "net/packet.hpp"
#include "phone/profile.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stack/stack_layer.hpp"

namespace acute::phone {

class KernelStack : public stack::StackLayer {
 public:
  /// Binds the layer to `sim`; reset() initializes it.
  explicit KernelStack(sim::Simulator& sim) : sim_(&sim) {}
  KernelStack(sim::Simulator& sim, sim::Rng rng, const PhoneProfile& profile)
      : KernelStack(sim) {
    reset(std::move(rng), profile);
  }

  /// Initializes the per-scenario state: this rng stream, `profile`'s
  /// costs (the profile must outlive the layer), zero counters.
  void reset(sim::Rng rng, const PhoneProfile& profile) {
    rng_ = std::move(rng);
    profile_ = &profile;
    tx_packets_ = 0;
    rx_packets_ = 0;
    icmp_echoes_served_ = 0;
  }

  // StackLayer.
  [[nodiscard]] const char* layer_name() const override { return "kernel"; }
  /// Downward: a packet entering the kernel from a socket write. The bpf
  /// tap (kernel_send) is stamped just before the driver hand-off.
  void transmit(net::Packet&& packet) override;
  /// Upward: a packet climbing from the driver (netif_rx). ICMP echo
  /// requests are answered in place; everything else ascends to the socket
  /// layer after protocol processing.
  void deliver(net::Packet&& packet) override;

  [[nodiscard]] std::uint64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] std::uint64_t rx_packets() const { return rx_packets_; }
  /// ICMP echo requests answered by the kernel (never reach user space).
  [[nodiscard]] std::uint64_t icmp_echoes_served() const {
    return icmp_echoes_served_;
  }

 private:
  sim::Simulator* sim_;
  sim::Rng rng_{0};
  const PhoneProfile* profile_ = nullptr;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t icmp_echoes_served_ = 0;
};

}  // namespace acute::phone
