#include "phone/runtime.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::phone {

using net::Packet;
using sim::Duration;
using sim::expects;
using stack::StampPoint;

const char* to_string(ExecMode mode) {
  switch (mode) {
    case ExecMode::native_c:
      return "native C";
    case ExecMode::dalvik:
      return "Dalvik";
  }
  return "?";
}

void ExecEnv::reset(sim::Rng rng, const PhoneProfile& profile) {
  rng_ = std::move(rng);
  profile_ = &profile;
}

Duration ExecEnv::send_overhead(ExecMode mode) {
  const LatencyDist& dist = mode == ExecMode::native_c
                                ? profile_->native_send
                                : profile_->dvm_send;
  return dist.sample_scaled(rng_, profile_->cpu_scale);
}

Duration ExecEnv::recv_overhead(ExecMode mode) {
  const LatencyDist& dist = mode == ExecMode::native_c
                                ? profile_->native_recv
                                : profile_->dvm_recv;
  Duration cost = dist.sample_scaled(rng_, profile_->cpu_scale);
  if (mode == ExecMode::dalvik && rng_.bernoulli(profile_->dvm_gc_prob)) {
    cost += profile_->dvm_gc_pause.sample(rng_);
  }
  return cost;
}

void ExecEnvLayer::reset(sim::Rng rng, const PhoneProfile& profile) {
  env_.reset(std::move(rng), profile);
  flows_.clear();
  flow_ids_ = net::IdAllocator<std::uint32_t>{};
  tap_ = nullptr;
}

void ExecEnvLayer::send(Packet&& packet, ExecMode mode) {
  stamp(packet, StampPoint::app_send, sim_->now());  // t_u^o
  if (tap_ != nullptr) tap_->on_app_send(packet, sim_->now());
  const Duration overhead = env_.send_overhead(mode);
  sim_->schedule_in(overhead, [this, pkt = std::move(packet)]() mutable {
    pass_down(std::move(pkt));
  });
}

void ExecEnvLayer::deliver(Packet&& packet) {
  const FlowEntry* entry = find_flow(packet.flow_id);
  if (entry == nullptr) return;  // no app bound to this flow
  const Duration overhead = env_.recv_overhead(entry->mode);
  const std::uint32_t flow_id = packet.flow_id;
  sim_->schedule_in(overhead, [this, flow_id,
                               pkt = std::move(packet)]() mutable {
    stamp(pkt, StampPoint::app_recv, sim_->now());  // t_u^i
    // Re-look-up: the app may have unregistered while the packet climbed.
    FlowEntry* handler_entry = find_flow(flow_id);
    if (handler_entry == nullptr) return;
    if (tap_ != nullptr) tap_->on_app_deliver(pkt, sim_->now());
    handler_entry->handler(std::move(pkt));
  });
}

void ExecEnvLayer::register_flow(std::uint32_t flow_id, AppRxFn handler,
                                 ExecMode mode) {
  expects(static_cast<bool>(handler),
          "ExecEnvLayer::register_flow requires a handler");
  FlowEntry* entry = find_flow(flow_id);
  if (entry == nullptr) {
    flows_.emplace_back();
    entry = &flows_.back();
    entry->flow_id = flow_id;
  }
  entry->handler = std::move(handler);
  entry->mode = mode;
}

void ExecEnvLayer::unregister_flow(std::uint32_t flow_id) {
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    if (it->flow_id == flow_id) {
      flows_.erase(it);
      return;
    }
  }
}

ExecEnvLayer::FlowEntry* ExecEnvLayer::find_flow(std::uint32_t flow_id) {
  for (FlowEntry& entry : flows_) {
    if (entry.flow_id == flow_id) return &entry;
  }
  return nullptr;
}

std::uint32_t ExecEnvLayer::allocate_flow_id() {
  std::uint32_t id = flow_ids_.next();
  while (find_flow(id) != nullptr) id = flow_ids_.next();
  return id;
}

}  // namespace acute::phone
