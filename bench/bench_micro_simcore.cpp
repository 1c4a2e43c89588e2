// Micro-benchmarks (google-benchmark) for the simulation substrate itself:
// event-queue throughput, channel contention, and a full end-to-end probe
// round trip through the testbed. These bound the cost of the reproduction
// experiments (all tables re-run in seconds).
#include <benchmark/benchmark.h>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"

using namespace acute;
using sim::Duration;

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Rng rng(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.push(sim::TimePoint::from_nanos(t + rng.uniform_int(0, 1000)),
                 [] {});
      ++t;
    }
    // fire_one, the path Simulator::run takes: closures run in place.
    while (queue.fire_one(
        [](sim::TimePoint when) { benchmark::DoNotOptimize(when); })) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_SimulatorTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 1000) sim.schedule_in(Duration::micros(10), tick);
    };
    sim.schedule_in(Duration::micros(10), tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerChain);

void BM_RngTruncatedNormal(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.truncated_normal(10.0, 1.0, 8.0, 13.0));
  }
}
BENCHMARK(BM_RngTruncatedNormal);

// What a campaign shard pays per stream: fork a fresh child and draw once.
// Seeding dominates, so this isolates the engine's seeding cost.
void BM_RngForkFirstDraw(benchmark::State& state) {
  const sim::Rng parent(7);
  std::uint64_t tag = 0;
  for (auto _ : state) {
    sim::Rng child = parent.fork(tag++);
    benchmark::DoNotOptimize(child.uniform_int(0, 1000));
  }
}
BENCHMARK(BM_RngForkFirstDraw);

void BM_StackPipelineTransit(benchmark::State& state) {
  // One packet descending the full five-layer phone stack onto the medium,
  // amortized — the move-based hot path the zero-copy refactor targets.
  testbed::Testbed testbed;
  testbed.phone().set_system_traffic_enabled(false);
  testbed.phone().bus().set_sleep_enabled(false);
  testbed.settle(sim::Duration::millis(700));
  auto& sim = testbed.simulator();
  net::Packet::reset_op_counters();
  std::uint64_t sent = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      net::Packet pkt = net::Packet::make(
          net::PacketType::udp_data, net::Protocol::udp, 0,
          testbed::Testbed::kServerId, net::packet_size::udp_small);
      pkt.ttl = 1;  // dies at the AP: isolates the descent
      testbed.phone().send(std::move(pkt), phone::ExecMode::native_c);
      ++sent;
    }
    sim.run_for(sim::Duration::millis(30));
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.counters["copies_per_pkt"] = benchmark::Counter(
      double(net::Packet::op_counters().copies) / double(sent));
}
BENCHMARK(BM_StackPipelineTransit);

void BM_FullProbeRoundTrip(benchmark::State& state) {
  // One complete AcuteMon probe (SYN/SYN-ACK through phone stack, channel,
  // AP, switch, netem server and back), amortized.
  for (auto _ : state) {
    testbed::ScenarioSpec spec;
    spec.phones.front().workload = {.tool = tools::ToolKind::acutemon,
                                    .probe_count = 20};
    spec.emulated_rtt = Duration::millis(10);
    const auto result = testbed::Experiment::run(spec);
    benchmark::DoNotOptimize(result.samples.size());
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_FullProbeRoundTrip);

void BM_CongestedChannelSecond(benchmark::State& state) {
  // One simulated second of a saturated 802.11g channel (10 UDP flows).
  // Building the testbed, the 100 ms settle and the cross-traffic start
  // happen once, outside the timed loop: each iteration is one further
  // steady-state second of the same warm testbed. The counters are the
  // work that second costs: events fired and Packet copies made.
  testbed::ScenarioSpec spec;
  spec.congested_phy = true;
  testbed::Testbed testbed(spec);
  testbed.settle(Duration::millis(100));
  testbed.start_cross_traffic();
  const std::uint64_t events_before = testbed.simulator().events_fired();
  net::Packet::reset_op_counters();
  for (auto _ : state) {
    testbed.settle(Duration::seconds(1));
  }
  benchmark::DoNotOptimize(testbed.cross_traffic_throughput_mbps());
  state.counters["events_per_sim_s"] = benchmark::Counter(
      double(testbed.simulator().events_fired() - events_before),
      benchmark::Counter::kAvgIterations);
  state.counters["copies_per_sim_s"] =
      benchmark::Counter(double(net::Packet::op_counters().copies),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CongestedChannelSecond);

}  // namespace

BENCHMARK_MAIN();
