// 802.11 channel: airtime arithmetic, CSMA/CA timing, collisions,
// saturation throughput, queue limits, priority frames, sniffer capture.
#include <gtest/gtest.h>

#include <vector>

#include "sim/contracts.hpp"
#include "sim/simulator.hpp"
#include "wifi/channel.hpp"
#include "wifi/constants.hpp"
#include "wifi/radio.hpp"
#include "wifi/sniffer.hpp"

namespace acute::wifi {
namespace {

using namespace acute::sim::literals;
using net::Packet;
using net::PacketType;
using net::Protocol;
using sim::Duration;
using sim::Simulator;

Packet data_packet(net::NodeId src, net::NodeId dst, std::uint32_t size) {
  return Packet::make(PacketType::udp_data, Protocol::udp, src, dst, size);
}

TEST(Airtime, PayloadScalesWithSizeAndRate) {
  EXPECT_EQ(payload_airtime(54 * 125, 54.0), Duration::micros(1000));
  EXPECT_EQ(payload_airtime(1500, 54.0).count_nanos(),
            Duration::micros(1500 * 8 / 54.0).count_nanos());
  // Halving the rate doubles the airtime.
  EXPECT_EQ(payload_airtime(900, 27.0), payload_airtime(1800, 54.0));
}

TEST(Airtime, FrameAddsPreamble) {
  const PhyParams phy = phy_802_11g();
  EXPECT_EQ(frame_airtime(phy, 0, 54.0), phy.preamble);
  EXPECT_EQ(frame_airtime(phy, 54 * 125, 54.0),
            phy.preamble + Duration::micros(1000));
}

TEST(Airtime, ControlFramesUseBasicRate) {
  const PhyParams phy = phy_802_11g();
  EXPECT_EQ(ack_airtime(phy), frame_airtime(phy, kAckBytes, 6.0));
  EXPECT_EQ(cts_to_self_airtime(phy),
            frame_airtime(phy, kAckBytes, 6.0) + phy.sifs);
}

TEST(Constants, BeaconIntervalIs102400Us) {
  EXPECT_EQ(beacon_interval(), Duration::micros(102'400));
  EXPECT_EQ(kTimeUnit, Duration::micros(1024));
}

struct ChannelFixture {
  Simulator sim;
  Channel channel{sim, sim::Rng(42), phy_802_11g()};
};

TEST(Channel, SingleFrameDeliveredWithinDcfWindow) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  std::vector<sim::TimePoint> arrivals;
  rx.set_receiver([&](Packet, const Frame& frame) {
    arrivals.push_back(frame.tx_end);
  });

  tx.enqueue(data_packet(1, 2, 1000), 2);
  f.sim.run_for(5_ms);
  ASSERT_EQ(arrivals.size(), 1u);

  const PhyParams phy = phy_802_11g();
  const Duration airtime = frame_airtime(phy, 1000, phy.data_rate_mbps);
  const Duration earliest = phy.difs + airtime;
  const Duration latest = phy.difs + phy.slot * phy.cw_min + airtime;
  const Duration when = arrivals[0] - sim::TimePoint::epoch();
  EXPECT_GE(when, earliest);
  EXPECT_LE(when, latest);
  EXPECT_EQ(f.channel.frames_transmitted(), 1u);
}

TEST(Channel, AirStampWrittenOnPacket) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  std::vector<Packet> received;
  rx.set_receiver([&](Packet pkt, const Frame&) {
    received.push_back(std::move(pkt));
  });
  tx.enqueue(data_packet(1, 2, 500), 2);
  f.sim.run_for(5_ms);
  ASSERT_EQ(received.size(), 1u);
  ASSERT_TRUE(received[0].stamps.air.has_value());
  EXPECT_GT(received[0].stamps.air->count_nanos(), 0);
}

TEST(Channel, UnicastNotDeliveredToBystander) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  Radio bystander(f.channel, 3);
  int rx_count = 0, bystander_count = 0;
  rx.set_receiver([&](Packet, const Frame&) { ++rx_count; });
  bystander.set_receiver([&](Packet, const Frame&) { ++bystander_count; });
  tx.enqueue(data_packet(1, 2, 500), 2);
  f.sim.run_for(5_ms);
  EXPECT_EQ(rx_count, 1);
  EXPECT_EQ(bystander_count, 0);
}

TEST(Channel, BroadcastReachesAllAwakeRadios) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx_a(f.channel, 2);
  Radio rx_b(f.channel, 3);
  Radio dozing(f.channel, 4);
  dozing.set_receiving(false);
  int a = 0, b = 0, d = 0;
  rx_a.set_receiver([&](Packet, const Frame&) { ++a; });
  rx_b.set_receiver([&](Packet, const Frame&) { ++b; });
  dozing.set_receiver([&](Packet, const Frame&) { ++d; });
  Packet beacon = Packet::make(PacketType::wifi_beacon, Protocol::wifi_mgmt,
                               1, net::kBroadcastId, 96);
  tx.enqueue(std::move(beacon), net::kBroadcastId);
  f.sim.run_for(5_ms);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(d, 0);  // a dozing radio cannot hear broadcasts
}

TEST(Channel, PriorityFrameSkipsBackoff) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  std::vector<sim::TimePoint> starts;
  rx.set_receiver([&](Packet pkt, const Frame&) {
    starts.push_back(*pkt.stamps.air);
  });
  Packet beacon = Packet::make(PacketType::wifi_beacon, Protocol::wifi_mgmt,
                               1, 2, 96);
  tx.enqueue_priority(std::move(beacon), 2);
  f.sim.run_for(5_ms);
  ASSERT_EQ(starts.size(), 1u);
  // Zero backoff: TX starts exactly one DIFS after the request.
  EXPECT_EQ(starts[0] - sim::TimePoint::epoch(), phy_802_11g().difs);
}

TEST(Channel, FifoOrderPerRadio) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  std::vector<std::uint64_t> order;
  rx.set_receiver([&](Packet pkt, const Frame&) { order.push_back(pkt.id); });
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 10; ++i) {
    Packet pkt = data_packet(1, 2, 200);
    sent.push_back(pkt.id);
    tx.enqueue(std::move(pkt), 2);
  }
  f.sim.run_for(50_ms);
  EXPECT_EQ(order, sent);
}

TEST(Channel, DeliveryFailureReportedToTransmitter) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  rx.set_receiving(false);
  std::vector<net::NodeId> failed_to;
  tx.set_delivery_fail_handler([&](Packet, net::NodeId receiver) {
    failed_to.push_back(receiver);
  });
  tx.enqueue(data_packet(1, 2, 500), 2);
  f.sim.run_for(5_ms);
  ASSERT_EQ(failed_to.size(), 1u);
  EXPECT_EQ(failed_to[0], 2u);
}

TEST(Channel, DeliveryFailureWithoutHandlerCountsDrop) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  rx.set_receiving(false);
  tx.enqueue(data_packet(1, 2, 500), 2);
  f.sim.run_for(5_ms);
  EXPECT_EQ(tx.dropped_count(), 1u);
}

TEST(Channel, TxDoneCallbackFires) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  int done = 0;
  tx.set_tx_done([&](const Frame& frame) {
    EXPECT_EQ(frame.transmitter, 1u);
    ++done;
  });
  tx.enqueue(data_packet(1, 2, 500), 2);
  f.sim.run_for(5_ms);
  EXPECT_EQ(done, 1);
}

TEST(Channel, ContendersAllEventuallyTransmit) {
  ChannelFixture f;
  Radio a(f.channel, 1), b(f.channel, 2), c(f.channel, 3);
  Radio sink(f.channel, 9);
  int received = 0;
  sink.set_receiver([&](Packet, const Frame&) { ++received; });
  for (int i = 0; i < 30; ++i) {
    a.enqueue(data_packet(1, 9, 400), 9);
    b.enqueue(data_packet(2, 9, 400), 9);
    c.enqueue(data_packet(3, 9, 400), 9);
  }
  f.sim.run_for(2_s);
  // Everything delivered except frames that exhausted the retry limit.
  EXPECT_EQ(received + int(f.channel.frames_dropped()), 90);
  EXPECT_GT(f.channel.collisions(), 0u);
}

TEST(Channel, SaturationThroughputPureG) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  tx.set_queue_limit(3000);
  std::uint64_t bytes = 0;
  rx.set_receiver([&](Packet pkt, const Frame&) { bytes += pkt.size_bytes; });
  for (int i = 0; i < 2000; ++i) tx.enqueue(data_packet(1, 2, 1498), 2);
  f.sim.run_for(1_s);
  const double mbps = double(bytes) * 8 / 1e6;
  // 1498 B frames at 54 Mbit/s with DCF overhead: ~24-34 Mbit/s goodput.
  EXPECT_GT(mbps, 22.0);
  EXPECT_LT(mbps, 40.0);
}

TEST(Channel, MixedModeThroughputNearPaper) {
  Simulator sim;
  Channel channel(sim, sim::Rng(42), phy_802_11g_mixed());
  Radio tx(channel, 1);
  Radio rx(channel, 2);
  tx.set_queue_limit(3000);
  std::uint64_t bytes = 0;
  rx.set_receiver([&](Packet pkt, const Frame&) { bytes += pkt.size_bytes; });
  for (int i = 0; i < 2000; ++i) {
    tx.enqueue(data_packet(1, 2, 1498), 2);
  }
  sim.run_for(1_s);
  const double mbps = double(bytes) * 8 / 1e6;
  // §4.3: the congested WLAN tops out near ~10 Mbit/s.
  EXPECT_GT(mbps, 8.0);
  EXPECT_LT(mbps, 15.0);
}

TEST(Channel, QueueLimitTailDrops) {
  ChannelFixture f;
  Radio tx(f.channel, 1);
  tx.set_queue_limit(5);
  for (int i = 0; i < 10; ++i) tx.enqueue(data_packet(1, 2, 100), 2);
  EXPECT_EQ(tx.queue_depth(), 5u);
  EXPECT_EQ(tx.dropped_count(), 5u);
}

TEST(Channel, DuplicateOwnerRejected) {
  ChannelFixture f;
  Radio a(f.channel, 1);
  EXPECT_THROW(Radio(f.channel, 1), sim::ContractViolation);
}

/// Records what a sniffer forwards (the sniffer itself keeps no log).
struct CaptureLog : passive::CaptureObserver {
  struct Capture {
    std::uint64_t packet_id;
    PacketType type;
    sim::TimePoint time;
  };
  std::vector<Capture> captures;
  void on_capture(const Packet& packet, net::NodeId, net::NodeId,
                  sim::TimePoint time, bool) override {
    captures.push_back({packet.id, packet.type, time});
  }
};

TEST(Sniffer, CapturesEveryFrameWithAirTime) {
  ChannelFixture f;
  Sniffer sniffer("test", sim::Rng(1));
  CaptureLog log;
  sniffer.attach_capture_observer(&log);
  f.channel.attach_observer(sniffer);
  Radio tx(f.channel, 1);
  Radio rx(f.channel, 2);
  std::vector<sim::TimePoint> air;
  rx.set_receiver([&](Packet pkt, const Frame&) {
    air.push_back(*pkt.stamps.air);
  });
  Packet pkt = data_packet(1, 2, 700);
  const std::uint64_t id = pkt.id;
  tx.enqueue(std::move(pkt), 2);
  f.sim.run_for(5_ms);
  ASSERT_EQ(log.captures.size(), 1u);
  EXPECT_EQ(log.captures[0].packet_id, id);
  EXPECT_EQ(log.captures[0].type, PacketType::udp_data);
  ASSERT_EQ(air.size(), 1u);
  EXPECT_EQ(log.captures[0].time, air[0]);  // noiseless sniffer
}

TEST(Sniffer, TimestampNoiseBounded) {
  // `late` is `noisy`'s twin (same seed) but observed only from frame 20
  // on: its noise draws must not depend on when an observer attaches.
  Simulator sim;
  Channel channel(sim, sim::Rng(42), phy_802_11g());
  Sniffer noisy("noisy", sim::Rng(2), Duration::micros(5));
  Sniffer late("late", sim::Rng(2), Duration::micros(5));
  CaptureLog noisy_log, late_log;
  noisy.attach_capture_observer(&noisy_log);
  channel.attach_observer(noisy);
  channel.attach_observer(late);
  Radio tx(channel, 1);
  Radio rx(channel, 2);
  std::vector<sim::TimePoint> truth;
  rx.set_receiver([&](Packet pkt, const Frame&) {
    truth.push_back(*pkt.stamps.air);
  });
  for (int i = 0; i < 20; ++i) tx.enqueue(data_packet(1, 2, 300), 2);
  sim.run_for(100_ms);
  ASSERT_EQ(truth.size(), 20u);
  late.attach_capture_observer(&late_log);
  for (int i = 0; i < 30; ++i) tx.enqueue(data_packet(1, 2, 300), 2);
  sim.run_for(100_ms);
  ASSERT_EQ(noisy_log.captures.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const auto error = noisy_log.captures[i].time - truth[i];
    EXPECT_LE(error, Duration::micros(5));
    EXPECT_GE(error, -Duration::micros(5));
  }
  ASSERT_EQ(late_log.captures.size(), 30u);
  for (std::size_t i = 0; i < late_log.captures.size(); ++i) {
    EXPECT_EQ(late_log.captures[i].time, noisy_log.captures[20 + i].time)
        << "frame " << 20 + i;
  }
}

}  // namespace
}  // namespace acute::wifi
