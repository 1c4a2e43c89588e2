#include "tools/ping2.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::tools {

using net::Packet;
using net::PacketType;
using net::Protocol;
using sim::Duration;
using sim::expects;

Ping2Prober::Ping2Prober(sim::Simulator& sim, net::EchoServer& server,
                         Config config)
    : sim_(&sim), server_(&server), config_(config) {
  expects(config.pairs > 0, "Ping2Prober requires pairs > 0");
  expects(config.timeout > Duration{},
          "Ping2Prober requires a positive timeout");
}

Ping2Prober::~Ping2Prober() { server_->set_packet_observer(nullptr); }

void Ping2Prober::start(DoneFn done) {
  expects(!started_, "Ping2Prober::start may only be called once");
  started_ = true;
  done_ = std::move(done);
  server_->set_packet_observer([this](const Packet& pkt) {
    if (pkt.type == PacketType::icmp_echo_reply) on_reply(pkt);
  });
  for (int i = 0; i < config_.pairs; ++i) {
    sim_->schedule_in(config_.pair_interval * i,
                      [this, i] { launch_pair(i); });
  }
}

void Ping2Prober::launch_pair(int index) { send_ping(index, false); }

void Ping2Prober::send_ping(int index, bool is_second) {
  Packet ping = Packet::make(PacketType::icmp_echo_request, Protocol::icmp,
                             server_->id(), config_.target,
                             net::packet_size::icmp_echo);
  ping.probe_id = Packet::allocate_id();

  Outstanding entry;
  entry.index = index;
  entry.is_second = is_second;
  entry.sent_at = sim_->now();
  const std::uint64_t probe_id = ping.probe_id;
  entry.timeout =
      sim_->schedule_in(config_.timeout, [this, probe_id] {
        on_timeout(probe_id);
      });
  outstanding_[probe_id] = std::move(entry);
  server_->originate(std::move(ping));
}

void Ping2Prober::on_reply(const Packet& reply) {
  const auto it = outstanding_.find(reply.probe_id);
  if (it == outstanding_.end()) return;
  Outstanding entry = std::move(it->second);
  entry.timeout.cancel();
  outstanding_.erase(it);

  const double rtt_ms = (sim_->now() - entry.sent_at).to_ms();
  if (entry.is_second) {
    result_.second_rtts_ms.push_back(rtt_ms);
    complete_pair(entry.index, false);
  } else {
    result_.first_rtts_ms.push_back(rtt_ms);
    // The heart of ping2: fire the second ping immediately, hoping the
    // phone is still awake from answering the first.
    send_ping(entry.index, true);
  }
}

void Ping2Prober::on_timeout(std::uint64_t probe_id) {
  const auto it = outstanding_.find(probe_id);
  if (it == outstanding_.end()) return;
  const int index = it->second.index;
  outstanding_.erase(it);
  complete_pair(index, true);
}

void Ping2Prober::complete_pair(int index, bool lost) {
  (void)index;
  if (lost) ++result_.lost_pairs;
  if (++completed_ < config_.pairs) return;
  finished_ = true;
  server_->set_packet_observer(nullptr);
  if (done_) done_(result_);
}

}  // namespace acute::tools
