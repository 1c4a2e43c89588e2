// A device's attachment to the wireless medium: a FIFO transmit queue plus a
// receiver that can be switched off while the owner dozes (PSM).
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "wifi/channel.hpp"

namespace acute::wifi {

class Radio {
 public:
  /// Receive callback: the payload plus medium metadata. Unicast frames are
  /// moved in (the channel gives up its copy); broadcast receivers each get
  /// a copy moved in. On unicast delivery the packet argument aliases
  /// `frame.packet`, so read anything you need from `frame.packet` BEFORE
  /// moving the packet; the rest of `frame` stays valid for the call.
  using RxFn = std::function<void(net::Packet&&, const Frame&)>;
  /// Transmit-completion callback (fires at the end of the frame's airtime).
  using TxDoneFn = std::function<void(const Frame&)>;
  /// Unicast delivery failure: the receiver's radio was off and retries were
  /// exhausted. The AP uses this to fall back to power-save buffering.
  using DeliveryFailFn = std::function<void(net::Packet&&, net::NodeId)>;

  /// Binds the radio to `channel`. It joins the channel in reset(owner),
  /// which its owning node's reset() calls.
  explicit Radio(Channel& channel) : channel_(&channel) {}
  Radio(Channel& channel, net::NodeId owner) : Radio(channel) { reset(owner); }

  /// Detaches from the channel: a Radio destroyed before its channel (a
  /// node constructor that throws after building its radio member) must
  /// not leave the channel holding a dangling pointer.
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  [[nodiscard]] net::NodeId owner() const { return owner_; }

  void set_receiver(RxFn on_receive) { on_receive_ = std::move(on_receive); }
  void set_tx_done(TxDoneFn on_tx_done) { on_tx_done_ = std::move(on_tx_done); }
  void set_delivery_fail_handler(DeliveryFailFn on_fail) {
    on_delivery_fail_ = std::move(on_fail);
  }

  /// Queues a frame for transmission to `receiver` (a neighbour address:
  /// the AP for stations, a station for the AP, or broadcast).
  void enqueue(net::Packet&& packet, net::NodeId receiver);

  /// Queues a frame that skips backoff in its first contention round
  /// (beacons: the AP gets PIFS-like priority at TBTT).
  void enqueue_priority(net::Packet&& packet, net::NodeId receiver);

  /// Receiver power: a dozing station cannot receive frames. Transmission
  /// is always possible (the radio wakes to send).
  void set_receiving(bool on) { receiving_ = on; }
  [[nodiscard]] bool receiving() const { return receiving_; }

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t tx_count() const { return tx_count_; }
  [[nodiscard]] std::uint64_t rx_count() const { return rx_count_; }
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_count_; }

  /// Maximum transmit queue depth; excess frames are tail-dropped
  /// (saturated sources must not grow memory without bound).
  void set_queue_limit(std::size_t limit) { queue_limit_ = limit; }

  /// Initializes the per-scenario state: `owner` is the address frames
  /// are delivered to; the queue, counters and receiver power start over;
  /// the radio (re)joins the end of its channel's radio list. The channel
  /// must have been reset first. The queue keeps its ring storage, so a
  /// warm radio refills it without allocating. The callbacks are bindings
  /// and stay.
  void reset(net::NodeId owner);

 private:
  friend class Channel;

  struct QueuedFrame {
    net::Packet packet;
    net::NodeId receiver;
    bool priority = false;
    int retries = 0;
  };

  [[nodiscard]] bool backlogged() const { return !queue_.empty(); }
  [[nodiscard]] QueuedFrame& head() { return queue_.front(); }
  void pop_head() { queue_.pop_front(); }

  Channel* channel_;
  net::NodeId owner_ = 0;
  RxFn on_receive_;
  TxDoneFn on_tx_done_;
  DeliveryFailFn on_delivery_fail_;
  sim::Ring<QueuedFrame> queue_;
  std::size_t queue_limit_ = 1000;
  bool receiving_ = true;
  int cw_ = 0;  // current contention window (slots); set from phy on attach
  std::uint64_t tx_count_ = 0;
  std::uint64_t rx_count_ = 0;
  std::uint64_t dropped_count_ = 0;
};

}  // namespace acute::wifi
