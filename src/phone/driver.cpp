#include "phone/driver.hpp"

#include <utility>

namespace acute::phone {

using net::Packet;
using sim::Duration;
using sim::TimePoint;
using stack::StampPoint;

void WnicDriver::transmit(Packet&& packet) {
  const TimePoint xmit_entry = sim_->now();
  stamp(packet, StampPoint::driver_xmit_entry, xmit_entry);

  // dhd_sched_dpc + dpc wake-up, then the bus-sleep / clock checks.
  const Duration dispatch = profile_->driver_tx_base.sample(rng_);
  const Duration bus_ready = bus_->acquire(SdioBus::Direction::transmit);

  sim_->schedule_in(
      dispatch + bus_ready,
      [this, pkt = std::move(packet)]() mutable {
        // dhdsdio_txpkt: hand the frame to the bus layer for the write.
        stamp(pkt, StampPoint::driver_txpkt, sim_->now());
        dvsend_ms_.push_back(
            (sim_->now() - *pkt.stamps.driver_xmit_entry).to_ms());
        ++tx_packets_;
        pass_down(std::move(pkt));
      });
}

void WnicDriver::deliver(Packet&& packet) {
  // The chip raises the interrupt shortly after the frame ends on air.
  sim_->schedule_in(profile_->irq_latency, [this,
                                            pkt = std::move(packet)]() mutable {
    // dhdsdio_isr entry.
    stamp(pkt, StampPoint::driver_isr, sim_->now());
    const Duration bus_ready = bus_->acquire(SdioBus::Direction::receive);
    const Duration read_cost = profile_->driver_rx_base.sample(rng_) +
                               bus_->transfer_time(pkt.size_bytes);
    sim_->schedule_in(
        bus_ready + read_cost,
        [this, pkt = std::move(pkt)]() mutable {
          // dhd_rxf_enqueue.
          stamp(pkt, StampPoint::driver_rxf_enqueue, sim_->now());
          dvrecv_ms_.push_back(
              (sim_->now() - *pkt.stamps.driver_isr).to_ms());
          bus_->activity();
          ++rx_packets_;
          // rxf thread -> netif_rx_ni.
          const Duration netif = profile_->driver_netif.sample_scaled(
              rng_, profile_->cpu_scale);
          sim_->schedule_in(netif, [this, pkt = std::move(pkt)]() mutable {
            pass_up(std::move(pkt));
          });
        });
  });
}

void WnicDriver::clear_logs() {
  dvsend_ms_.clear();
  dvrecv_ms_.clear();
}

}  // namespace acute::phone
