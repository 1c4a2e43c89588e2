#include "net/switch.hpp"

#include <algorithm>

#include "sim/contracts.hpp"

namespace acute::net {

using sim::expects;

void Switch::attach_port(Link& link) {
  expects(std::find(ports_.begin(), ports_.end(), &link) == ports_.end(),
          "Switch::attach_port: link already attached");
  ports_.push_back(&link);
}

void Switch::pin(NodeId host, Link& link) {
  expects(std::find(ports_.begin(), ports_.end(), &link) != ports_.end(),
          "Switch::pin: link is not an attached port");
  for (auto& [addr, port] : table_) {
    if (addr == host) {
      port = &link;
      return;
    }
  }
  table_.emplace_back(host, &link);
}

void Switch::receive(Packet&& packet, Link* ingress) {
  expects(ingress != nullptr, "Switch requires wired ingress");
  // Learn the sender's port.
  Link** learned = nullptr;
  Link* dst_port = nullptr;
  for (auto& [addr, port] : table_) {
    if (addr == packet.src) learned = &port;
    if (addr == packet.dst) dst_port = port;
  }
  if (learned != nullptr) {
    *learned = ingress;
  } else {
    table_.emplace_back(packet.src, ingress);
  }

  if (!packet.is_broadcast() && dst_port != nullptr) {
    ++forwarded_count_;
    dst_port->send(id_, std::move(packet));
    return;
  }
  // Unknown destination or broadcast: flood all ports except ingress. Each
  // egress owns its packet (payload bytes stay shared): every port but the
  // last gets a copy, and the last takes the original.
  ++flooded_count_;
  Link* previous = nullptr;
  for (Link* port : ports_) {
    if (port == ingress) continue;
    if (previous != nullptr) previous->send(id_, Packet(packet));
    previous = port;
  }
  if (previous != nullptr) previous->send(id_, std::move(packet));
}

}  // namespace acute::net
