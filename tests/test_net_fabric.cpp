// Wired substrate: Link timing, Switch learning, NetemQdisc shaping.
#include <gtest/gtest.h>

#include <vector>

#include "net/link.hpp"
#include "net/netem.hpp"
#include "net/node.hpp"
#include "net/switch.hpp"
#include "sim/contracts.hpp"
#include "sim/simulator.hpp"

namespace acute::net {
namespace {

using namespace acute::sim::literals;
using sim::Duration;
using sim::Simulator;

/// Records every packet delivered to it, with arrival times.
class SinkNode : public Node {
 public:
  SinkNode(Simulator& sim, NodeId id) : sim_(&sim), id_(id) {}
  void receive(Packet&& packet, Link* ingress) override {
    arrivals.push_back({std::move(packet), sim_->now(), ingress});
  }
  [[nodiscard]] NodeId id() const override { return id_; }

  struct Arrival {
    Packet packet;
    sim::TimePoint when;
    Link* ingress;
  };
  std::vector<Arrival> arrivals;

 private:
  Simulator* sim_;
  NodeId id_;
};

Packet make_udp(NodeId src, NodeId dst, std::uint32_t size = 1000) {
  return Packet::make(PacketType::udp_data, Protocol::udp, src, dst, size);
}

TEST(Link, DeliversAfterSerializationAndPropagation) {
  Simulator sim;
  SinkNode a(sim, 1), b(sim, 2);
  // 1000 B at 1 Gbit/s = 8 us serialization; 5 us propagation.
  Link link(sim, a, b, Duration::micros(5), 1e9);
  link.send(1, make_udp(1, 2, 1000));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].when.count_nanos(), 13'000);
  EXPECT_EQ(link.delivered_count(), 1u);
}

TEST(Link, BackToBackPacketsSerializeFifo) {
  Simulator sim;
  SinkNode a(sim, 1), b(sim, 2);
  Link link(sim, a, b, Duration::micros(5), 1e9);
  for (int i = 0; i < 3; ++i) link.send(1, make_udp(1, 2, 1000));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 3u);
  // Each packet waits for the previous serialization: 8, 16, 24 us + prop.
  EXPECT_EQ(b.arrivals[0].when.count_nanos(), 13'000);
  EXPECT_EQ(b.arrivals[1].when.count_nanos(), 21'000);
  EXPECT_EQ(b.arrivals[2].when.count_nanos(), 29'000);
}

TEST(Link, DirectionsAreIndependent) {
  Simulator sim;
  SinkNode a(sim, 1), b(sim, 2);
  Link link(sim, a, b, Duration::micros(5), 1e9);
  link.send(1, make_udp(1, 2, 1000));
  link.send(2, make_udp(2, 1, 1000));
  sim.run();
  ASSERT_EQ(a.arrivals.size(), 1u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  // Both arrive at 13 us: no shared serialization between directions.
  EXPECT_EQ(a.arrivals[0].when.count_nanos(), 13'000);
  EXPECT_EQ(b.arrivals[0].when.count_nanos(), 13'000);
}

TEST(Link, PeerOfAndContracts) {
  Simulator sim;
  SinkNode a(sim, 1), b(sim, 2);
  Link link(sim, a, b, Duration::micros(1), 1e9);
  EXPECT_EQ(link.peer_of(1).id(), 2u);
  EXPECT_EQ(link.peer_of(2).id(), 1u);
  EXPECT_THROW((void)link.peer_of(99), sim::ContractViolation);
  EXPECT_THROW(link.send(99, make_udp(99, 1)), sim::ContractViolation);
}

TEST(Link, RejectsInvalidConstruction) {
  Simulator sim;
  SinkNode a(sim, 1), b(sim, 2);
  EXPECT_THROW(Link(sim, a, b, Duration::micros(1), 0.0),
               sim::ContractViolation);
  EXPECT_THROW(Link(sim, a, a, Duration::micros(1), 1e9),
               sim::ContractViolation);
}

TEST(Switch, FloodsUnknownThenForwardsLearned) {
  Simulator sim;
  Switch sw(100);
  SinkNode a(sim, 1), b(sim, 2), c(sim, 3);
  Link la(sim, a, sw, Duration::micros(1), 1e9);
  Link lb(sim, b, sw, Duration::micros(1), 1e9);
  Link lc(sim, c, sw, Duration::micros(1), 1e9);
  sw.attach_port(la);
  sw.attach_port(lb);
  sw.attach_port(lc);

  // a -> b: b unknown, so the switch floods to b and c (not back to a).
  // Two egress ports cost one copy: the last port takes the original.
  Packet::reset_op_counters();
  la.send(1, make_udp(1, 2));
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals.size(), 0u);
  EXPECT_EQ(sw.flooded_count(), 1u);
  EXPECT_EQ(sw.learned_count(), 1u);  // learned a
  EXPECT_EQ(Packet::op_counters().copies, 1u);

  // b -> a: a is known now, unicast forward; b gets learned too.
  lb.send(2, make_udp(2, 1));
  sim.run();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals.size(), 1u);  // unchanged
  EXPECT_EQ(sw.forwarded_count(), 1u);
  EXPECT_EQ(sw.learned_count(), 2u);

  // a -> b again: now forwarded, not flooded.
  la.send(1, make_udp(1, 2));
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(c.arrivals.size(), 1u);
  EXPECT_EQ(sw.forwarded_count(), 2u);
}

TEST(Switch, PinnedSilentHostIsForwardedNotFlooded) {
  // A host that never sends (the load server's UDP sink) is never learned.
  // Pinned, it gets every datagram by unicast from the first one on, and
  // the other ports never see them.
  Simulator sim;
  Switch sw(100);
  SinkNode a(sim, 1), b(sim, 2), sink(sim, 3);
  Link la(sim, a, sw, Duration::micros(1), 1e9);
  Link lb(sim, b, sw, Duration::micros(1), 1e9);
  Link ls(sim, sink, sw, Duration::micros(1), 1e9);
  sw.attach_port(la);
  sw.attach_port(lb);
  sw.attach_port(ls);
  sw.pin(3, ls);

  Packet::reset_op_counters();
  for (int i = 0; i < 5; ++i) la.send(1, make_udp(1, 3));
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 5u);
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_TRUE(a.arrivals.empty());
  EXPECT_EQ(sw.forwarded_count(), 5u);
  EXPECT_EQ(sw.flooded_count(), 0u);
  EXPECT_EQ(Packet::op_counters().copies, 0u);
}

TEST(Switch, PinRequiresAnAttachedPort) {
  Simulator sim;
  Switch sw(100);
  SinkNode a(sim, 1);
  Link la(sim, a, sw, Duration::micros(1), 1e9);
  EXPECT_THROW(sw.pin(1, la), sim::ContractViolation);
}

TEST(Switch, RejectsDuplicatePort) {
  Simulator sim;
  Switch sw(100);
  SinkNode a(sim, 1);
  Link la(sim, a, sw, Duration::micros(1), 1e9);
  sw.attach_port(la);
  EXPECT_THROW(sw.attach_port(la), sim::ContractViolation);
}

TEST(Netem, AppliesBaseDelay) {
  Simulator sim;
  std::vector<sim::TimePoint> arrivals;
  NetemQdisc netem(sim, sim::Rng(1), [&](Packet) {
    arrivals.push_back(sim.now());
  });
  netem.set_delay(30_ms);
  netem.enqueue(make_udp(1, 2));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].to_ms(), 30.0);
}

TEST(Netem, JitterStaysWithinBounds) {
  Simulator sim;
  std::vector<double> arrivals;
  NetemQdisc netem(sim, sim::Rng(2), [&](Packet) {
    arrivals.push_back(sim.now().to_ms());
  });
  netem.set_delay(30_ms);
  netem.set_jitter(2_ms);
  netem.set_prevent_reorder(false);
  for (int i = 0; i < 200; ++i) netem.enqueue(make_udp(1, 2));
  sim.run();
  for (const double t : arrivals) {
    EXPECT_GE(t, 28.0);
    EXPECT_LE(t, 32.0);
  }
}

TEST(Netem, PreventReorderKeepsFifo) {
  Simulator sim;
  std::vector<std::uint64_t> order;
  NetemQdisc netem(sim, sim::Rng(3), [&](Packet pkt) {
    order.push_back(pkt.id);
  });
  netem.set_delay(10_ms);
  netem.set_jitter(9_ms);  // strong jitter: would reorder without the guard
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 100; ++i) {
    Packet pkt = make_udp(1, 2);
    sent.push_back(pkt.id);
    netem.enqueue(std::move(pkt));
    sim.run_for(1_ms);
  }
  sim.run();
  EXPECT_EQ(order, sent);
}

TEST(Netem, LossDropsSomePackets) {
  Simulator sim;
  int delivered = 0;
  NetemQdisc netem(sim, sim::Rng(4), [&](Packet) { ++delivered; });
  netem.set_loss(0.3);
  for (int i = 0; i < 1000; ++i) netem.enqueue(make_udp(1, 2));
  sim.run();
  EXPECT_EQ(delivered + int(netem.dropped_count()), 1000);
  EXPECT_NEAR(double(netem.dropped_count()), 300.0, 60.0);
}

TEST(Netem, ContractChecks) {
  Simulator sim;
  EXPECT_THROW(NetemQdisc(sim, sim::Rng(1), nullptr),
               sim::ContractViolation);
  NetemQdisc netem(sim, sim::Rng(1), [](Packet) {});
  EXPECT_THROW(netem.set_loss(1.0), sim::ContractViolation);
  EXPECT_THROW(netem.set_loss(-0.1), sim::ContractViolation);
}

}  // namespace
}  // namespace acute::net
