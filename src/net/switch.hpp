// Learning Ethernet switch (the testbed's wired fabric, Fig. 2).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"

namespace acute::net {

class Switch : public Node {
 public:
  /// A switch binds nothing; reset() initializes it.
  Switch() = default;
  explicit Switch(NodeId id) { reset(id); }

  /// Initializes the per-scenario state: no ports, empty learning table,
  /// zero counters. Port and table storage stay warm.
  void reset(NodeId id) {
    id_ = id;
    ports_.clear();
    table_.clear();
    forwarded_count_ = 0;
    flooded_count_ = 0;
  }

  /// Registers a link as one of the switch ports. The link must have this
  /// switch as one endpoint.
  void attach_port(Link& link);

  /// Installs a forwarding entry for `host` on the attached port `link`, as
  /// a static MAC entry does for a host that never sends (the load server's
  /// UDP sink): without it every frame to `host` floods all ports. Learning
  /// refreshes the entry like any other should `host` ever send.
  void pin(NodeId host, Link& link);

  void receive(Packet&& packet, Link* ingress) override;

  [[nodiscard]] NodeId id() const override { return id_; }

  /// Number of (address -> port) entries learned or pinned so far.
  [[nodiscard]] std::size_t learned_count() const { return table_.size(); }

  [[nodiscard]] std::uint64_t forwarded_count() const {
    return forwarded_count_;
  }
  [[nodiscard]] std::uint64_t flooded_count() const { return flooded_count_; }

 private:
  NodeId id_ = 0;
  std::vector<Link*> ports_;
  // Learned and pinned (address -> port) entries. A handful of nodes sit
  // behind this switch, so a flat vector beats a node-based map and
  // re-learning after a reset allocates nothing once the capacity is warm.
  std::vector<std::pair<NodeId, Link*>> table_;
  std::uint64_t forwarded_count_ = 0;
  std::uint64_t flooded_count_ = 0;
};

}  // namespace acute::net
