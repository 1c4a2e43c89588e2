#include "wifi/radio.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::wifi {

Radio::~Radio() { channel_->detach_radio(*this); }

void Radio::reset(net::NodeId owner) {
  channel_->detach_radio(*this);
  owner_ = owner;
  queue_.clear();
  queue_limit_ = 1000;
  receiving_ = true;
  cw_ = 0;
  tx_count_ = 0;
  rx_count_ = 0;
  dropped_count_ = 0;
  channel_->attach_radio(*this);  // registers and seeds cw_ from phy
}

void Radio::enqueue(net::Packet&& packet, net::NodeId receiver) {
  if (queue_.size() >= queue_limit_) {
    ++dropped_count_;
    return;  // tail drop under saturation
  }
  queue_.push_back(QueuedFrame{std::move(packet), receiver, false, 0});
  channel_->notify_backlog(*this);
}

void Radio::enqueue_priority(net::Packet&& packet, net::NodeId receiver) {
  if (queue_.size() >= queue_limit_) {
    ++dropped_count_;
    return;
  }
  // Priority frames (beacons) jump the queue and skip backoff once.
  queue_.push_front(QueuedFrame{std::move(packet), receiver, true, 0});
  channel_->notify_backlog(*this);
}

}  // namespace acute::wifi
