// Committed output bytes: tests/golden/ pins the ckpt2 codec and the
// campaign's merged results to files, not only to a second code path that
// could drift with the first.
//
// How mixed_workloads.ckpt2 was generated: golden_spec() below (16 shards:
// one and two phones, loss 0 and 0.2, AcuteMon, ICMP ping, httping with
// both passive vantages, and Java ping, so du/dk/dv/dn and both passive
// digests carry centroids) ran through Campaign::run(1) with
// checkpoint_path set, and the file was then compacted with
// compact_checkpoint(path).
//
// How mixed_workloads.digests was generated: the same golden_spec(), with
// no checkpoint, ran through Campaign::run(1), and
// testbed::write_report_digests' format — the `acute_fabric --digest-out`
// dump, doubles as IEEE-754 bit patterns — was written to the file. Every
// determinism path below must reproduce it byte for byte: worker counts,
// kill/resume, a holed checkpoint and the fabric coordinator.
//
// How one_ping_grid.digests was generated: one_ping_spec() below (2000
// one-phone, one-ping shards on the bench_large_campaign grid shape: 50
// emulated RTTs x reorder x 20 loss rates, iterated lazily) ran through
// Campaign::run(1), and write_report_digests' dump was written to the file.
// Its ~1700 one-sample shard digests cross the campaign digest's
// 4*compression pending threshold by merges alone, which the 16 shards
// above never do, so this file pins the buffered merge's compaction points.
//
// How cross_traffic.ckpt2 and cross_traffic.digests were generated:
// cross_traffic_spec() below (8 shards: two and four phones, cross traffic
// on, AcuteMon, ICMP ping, httping with both passive vantages, and Java
// ping, 20 probes each) ran through the mixed_workloads steps above: once
// through Campaign::run(1) with checkpoint_path set, then
// compact_checkpoint(path), for the .ckpt2; once through Campaign::run(1)
// with no checkpoint, dumped by write_report_digests, for the .digests.
// The program that wrote them #included this file for its helpers, defined
// cross_traffic_spec() as below, and was linked against the library as it
// stood before CampaignSpec::spec_hash() became O(axes). So the grid shard
// hashes in the checkpoint lines are the ones a fully materialized,
// field-by-field hashed scenario gives. Its mixed_workloads output matched
// the committed files byte for byte. These are the first pins where cross
// traffic meets probes, on the shared channel and on the wired path, in a
// deep_fleet-shaped grid.
//
// The mixed_workloads and one_ping_grid files were last regenerated when
// sim::Rng's engine became xoshiro256** (every draw moved), by a program
// that called these steps on golden_spec() and one_ping_spec() below. The
// same program, built against the library before that change, reproduced
// the previous files byte for byte. Regenerate any of these files only
// with a deliberate change to output bits, by the same steps.
//
// The cross_traffic files were last regenerated when the switch no longer
// floods the load sink's traffic: Testbed::build_graph pins the silent UDP
// sink's switch port, so cross-traffic datagrams stop reaching the echo
// server's link, where they shared the link's busy time with probe
// requests. The regenerating program ran the steps above on
// cross_traffic_spec(); its mixed_workloads and one_ping_grid output
// matched the committed files byte for byte. Built against the library
// before that change, it reproduced the previous cross_traffic files byte
// for byte, and so did a build with that change minus the pin (8-byte
// packet stamps, no copy for the flood's last port), so the pin alone
// moved them.
//
// The fabric coordinator's core and real worker cores are also replayed
// here over seeded fault schedules (GoldenDigests.SeededFaultSchedules...),
// without sockets, threads or a clock: whatever a schedule does to the
// fleet, the merged digests and the compacted checkpoint must still be
// these files.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign_testing.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/transport.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "report/checkpoint.hpp"
#include "sim/contracts.hpp"
#include "sim/random.hpp"
#include "testbed/campaign.hpp"

namespace acute::report {
namespace {

using passive::PassiveVantage;
using sim::Duration;
using testbed::Campaign;
using testbed::CampaignReport;
using testbed::CampaignSpec;
using testbed::ScenarioGrid;
using testbed::WorkloadSpec;
using testing::digest_dump;
using tools::ToolKind;

const std::string kGoldenPath =
    std::string(ACUTE_GOLDEN_DIR) + "/mixed_workloads.ckpt2";
const std::string kGoldenDigestsPath =
    std::string(ACUTE_GOLDEN_DIR) + "/mixed_workloads.digests";
const std::string kOnePingDigestsPath =
    std::string(ACUTE_GOLDEN_DIR) + "/one_ping_grid.digests";
const std::string kCrossTrafficPath =
    std::string(ACUTE_GOLDEN_DIR) + "/cross_traffic.ckpt2";
const std::string kCrossTrafficDigestsPath =
    std::string(ACUTE_GOLDEN_DIR) + "/cross_traffic.digests";

struct TempFile {
  explicit TempFile(const std::string& name)
      : path("golden_checkpoint_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The golden file's lines, each with its '\n'.
std::vector<std::string> golden_lines() {
  std::vector<std::string> lines;
  std::istringstream in(read_file(kGoldenPath));
  for (std::string line; std::getline(in, line);) lines.push_back(line + '\n');
  return lines;
}

WorkloadSpec workload(ToolKind tool, PassiveVantage vantage) {
  WorkloadSpec spec;
  spec.tool = tool;
  spec.passive = vantage;
  return spec;
}

CampaignSpec golden_spec() {
  ScenarioGrid grid;
  grid.phone_counts = {1, 2};
  grid.emulated_rtts = {Duration::millis(10)};
  grid.loss_rates = {0.0, 0.2};
  grid.workloads = {workload(ToolKind::acutemon, PassiveVantage::none),
                    workload(ToolKind::icmp_ping, PassiveVantage::none),
                    workload(ToolKind::httping, PassiveVantage::both),
                    workload(ToolKind::java_ping, PassiveVantage::none)};
  CampaignSpec spec;
  spec.seed = 2016;
  spec.grid = grid;
  spec.probes_per_phone = 4;
  spec.probe_interval = Duration::millis(60);
  spec.probe_timeout = Duration::millis(900);
  spec.settle = Duration::millis(60);
  return spec;
}

CampaignSpec one_ping_spec() {
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(Duration::millis(2 + i));
  }
  grid.reorder = {false, true};
  grid.loss_rates.clear();
  for (int i = 0; i < 20; ++i) grid.loss_rates.push_back(0.015 * i);
  CampaignSpec spec;
  spec.seed = 2017;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = Duration::millis(50);
  spec.probe_timeout = Duration::millis(400);
  spec.settle = Duration::millis(50);
  return spec;
}

CampaignSpec cross_traffic_spec() {
  ScenarioGrid grid;
  grid.phone_counts = {2, 4};
  grid.emulated_rtts = {Duration::millis(10)};
  grid.cross_traffic = {true};
  grid.workloads = {workload(ToolKind::acutemon, PassiveVantage::none),
                    workload(ToolKind::icmp_ping, PassiveVantage::none),
                    workload(ToolKind::httping, PassiveVantage::both),
                    workload(ToolKind::java_ping, PassiveVantage::none)};
  CampaignSpec spec;
  spec.seed = 2018;
  spec.grid = grid;
  spec.probes_per_phone = 20;
  spec.probe_interval = Duration::millis(100);
  spec.probe_timeout = Duration::millis(1000);
  spec.settle = Duration::millis(200);
  return spec;
}

/// Runs `spec` through a fabric::Coordinator and three in-process workers
/// over pipe transports, with small leases so the shards interleave.
CampaignReport run_fabric(const CampaignSpec& spec) {
  std::vector<std::unique_ptr<fabric::Transport>> coordinator_ends;
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    auto [coordinator_end, worker_end] = fabric::transport_pair();
    coordinator_ends.push_back(std::move(coordinator_end));
    workers.emplace_back([end = std::move(worker_end), spec]() mutable {
      fabric::Worker worker(spec);
      (void)worker.run(*end);
    });
  }
  fabric::CoordinatorConfig config;
  config.lease.batch = 2;
  fabric::Coordinator coordinator(spec, config);
  CampaignReport report = coordinator.run(std::move(coordinator_ends));
  for (std::thread& worker : workers) worker.join();
  return report;
}

TEST(GoldenCheckpoint, EveryRecordReRendersByteForByte) {
  const std::vector<std::string> lines = golden_lines();
  ASSERT_EQ(lines.size(), 16u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    ShardCheckpoint record;
    ASSERT_TRUE(parse_checkpoint_record(lines[i], record));
    EXPECT_EQ(record.summary.info.scenario_index, i);
    EXPECT_EQ(render_checkpoint_record(record), lines[i]);
  }
}

TEST(GoldenCheckpoint, CompactingAShuffledCopyWithDuplicatesReproducesIt) {
  const std::vector<std::string> lines = golden_lines();
  ASSERT_FALSE(lines.empty());
  // Every record once or twice (identical duplicates, as the fabric's
  // re-lease race leaves them), in a seeded random order.
  std::vector<std::string> messy = lines;
  for (std::size_t i = 0; i < lines.size(); i += 3) messy.push_back(lines[i]);
  sim::Rng rng(1405);
  for (std::size_t i = messy.size() - 1; i > 0; --i) {
    std::swap(messy[i], messy[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
  }
  std::string bytes;
  for (const std::string& line : messy) bytes += line;

  TempFile compacted("compacted");
  write_file(compacted.path, bytes);
  compact_checkpoint(compacted.path);
  EXPECT_EQ(read_file(compacted.path), read_file(kGoldenPath));
}

TEST(GoldenCheckpoint, TheGoldenCampaignStillWritesTheseBytes) {
  TempFile checkpoint("campaign");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  const CampaignReport report = Campaign(spec).run(1);
  ASSERT_EQ(report.completed_shards(), 16u);
  compact_checkpoint(checkpoint.path);
  EXPECT_EQ(read_file(checkpoint.path), read_file(kGoldenPath));
}

TEST(GoldenDigests, EveryWorkerCountReproducesTheFile) {
  const std::string golden = read_file(kGoldenDigestsPath);
  ASSERT_FALSE(golden.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    EXPECT_EQ(digest_dump(Campaign(golden_spec()).run(workers)), golden);
  }
}

TEST(GoldenDigests, KillResumeTicksReproduceTheFile) {
  // Kill after 3 shards, tick 2 more, then finish: a fresh Campaign per
  // tick, only the checkpoint file carrying state.
  TempFile checkpoint("ticks");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  CampaignReport report;
  std::size_t done = 0;
  for (const std::size_t cap : {3, 2, 0}) {
    spec.max_shards = cap;
    report = Campaign(spec).run(2);
    done = cap == 0 ? 16 : done + cap;
    EXPECT_EQ(report.completed_shards(), done);
  }
  EXPECT_EQ(digest_dump(report), read_file(kGoldenDigestsPath));
}

TEST(GoldenDigests, HoledCheckpointResumeReproducesTheFile) {
  // Every third record gone: restored shards interleave with re-run ones,
  // the ordering the frontier's restored/fresh slot walk must get right.
  TempFile checkpoint("holes");
  std::string holed;
  const std::vector<std::string> lines = golden_lines();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % 3 != 1) holed += lines[i];
  }
  write_file(checkpoint.path, holed);
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  EXPECT_EQ(digest_dump(Campaign(spec).run(2)),
            read_file(kGoldenDigestsPath));
}

TEST(GoldenDigests, FabricCoordinatorReproducesTheFile) {
  // The coordinator's compacted checkpoint must also be the golden
  // checkpoint.
  TempFile checkpoint("fabric");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  EXPECT_EQ(digest_dump(run_fabric(spec)), read_file(kGoldenDigestsPath));
  EXPECT_EQ(read_file(checkpoint.path), read_file(kGoldenPath));
}

TEST(GoldenDigests, OnePingGridReproducesTheFile) {
  const std::string golden = read_file(kOnePingDigestsPath);
  ASSERT_FALSE(golden.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    EXPECT_EQ(digest_dump(Campaign(one_ping_spec()).run(workers)), golden);
  }

  // Killed after 700 shards, then resumed from the checkpoint alone.
  TempFile ticks("one_ping_ticks");
  CampaignSpec spec = one_ping_spec();
  spec.checkpoint_path = ticks.path;
  spec.max_shards = 700;
  EXPECT_EQ(Campaign(spec).run(4).completed_shards(), 700u);
  spec.max_shards = 0;
  const CampaignReport resumed = Campaign(spec).run(4);
  EXPECT_EQ(resumed.completed_shards(), 2000u);
  EXPECT_EQ(digest_dump(resumed), golden);

  TempFile fabric_checkpoint("one_ping_fabric");
  spec.checkpoint_path = fabric_checkpoint.path;
  EXPECT_EQ(digest_dump(run_fabric(spec)), golden);
}

TEST(GoldenCrossTraffic, EveryWorkerCountReproducesTheDigests) {
  const std::string golden = read_file(kCrossTrafficDigestsPath);
  ASSERT_FALSE(golden.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    EXPECT_EQ(digest_dump(Campaign(cross_traffic_spec()).run(workers)),
              golden);
  }
}

TEST(GoldenCrossTraffic, TheCompactedCheckpointKeepsItsBytes) {
  // The records' spec hashes pin the grid shard hashes on the
  // cross-traffic axis; a 4-worker run appends out of order, so the
  // compaction rewrite is exercised too.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    TempFile checkpoint("cross_traffic");
    CampaignSpec spec = cross_traffic_spec();
    spec.checkpoint_path = checkpoint.path;
    ASSERT_EQ(Campaign(spec).run(workers).completed_shards(), 8u);
    compact_checkpoint(checkpoint.path);
    EXPECT_EQ(read_file(checkpoint.path), read_file(kCrossTrafficPath));
    // Resuming on the pinned bytes restores every shard (each record's
    // seed and spec hash validated) and folds the pinned digests.
    EXPECT_EQ(digest_dump(Campaign(spec).run(workers)),
              read_file(kCrossTrafficDigestsPath));
  }
}

// ------------------------------------------------- seeded fault schedules
//
// Real fabric::WorkerCores serve a coordinator core in memory, on the
// explorer's fake clock, and answer "run shard i" with golden line i. Their
// bytes reach the core through fabric::serve() and a FrameReader, as in
// Coordinator::run, and the core's sends reach them in order. Each seed
// draws the interleaving of worker steps and frame deliveries, duplicate
// completions, mutated frames, stalls (the clock jumped to the next lease
// deadline), disconnects mid-lease (half with no tick() after them, as
// when the driver's send fails), late joiners (a quarter of them with a
// mismatched hello) and one coordinator torn down and rebuilt on its
// checkpoint. A model beside the core predicts its counters: a processed
// shard_done merges unless its index merged (or was restored) before, and
// a mutated frame buries its worker, through the core's checks or the
// reader's verdict. A worker may fail only where its connection closed
// without a shutdown.

/// The coordinator's end of one worker's connection: what the worker sent
/// that the driver has not read yet. Empty reads as end-of-stream.
class Inbound final : public fabric::Transport {
 public:
  void send_all(const void*, std::size_t) override {}
  std::size_t recv_some(void* data, std::size_t size) override {
    const std::size_t got = std::min(size, bytes.size());
    std::copy_n(bytes.data(), got, static_cast<char*>(data));
    bytes.erase(0, got);
    return got;
  }
  [[nodiscard]] int fd() const override { return -1; }

  std::string bytes;
};

/// One worker of a fault schedule, and both directions of its connection.
struct Peer {
  Peer(std::size_t conn_in, const fabric::HelloBody& hello, bool rogue_in)
      : conn(conn_in), rogue(rogue_in), core(hello), reader(inbound) {}

  std::size_t conn;
  bool rogue;  // says hello with the wrong seed
  fabric::WorkerCore core;
  bool alive = true;       // has neither exited nor died
  bool open = true;        // the coordinator has not closed it
  bool joined = false;     // its hello was accepted
  bool shut_down = false;  // the coordinator sent it shutdown
  std::deque<fabric::Frame> inbox;    // coordinator → worker, unread
  std::deque<std::string> in_flight;  // worker → coordinator, one per frame
  Inbound inbound;
  fabric::FrameReader reader;
};

/// The counters the model predicts, as one comparable line.
std::string predicted(const fabric::CoordinatorStats& stats) {
  return "joined " + std::to_string(stats.workers_joined) + ", rejected " +
         std::to_string(stats.workers_rejected) + ", died " +
         std::to_string(stats.workers_died) + ", merged " +
         std::to_string(stats.shards_merged) + ", duplicates " +
         std::to_string(stats.duplicate_shards);
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

/// A uniform draw from [lo, hi].
std::size_t pick(sim::Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// Corrupts one frame a worker sent so that the coordinator must bury the
/// worker. Half of the shard_done frames lose their record instead of their
/// header: another frame type, a byte of the line's "ckpt2 <index> <seed>
/// <spec hash> " head or of its "end\n" tail, or a cut past the tail. (A
/// flipped digest bit would pass: the wire trusts a validated worker's
/// arithmetic.) A header gets a zero or oversize length or an unknown type,
/// which the driver's FrameReader refuses, or the frame is cut short: true
/// for that torn tail, which only the end of the worker's stream exposes.
bool mutate(std::string& frame, sim::Rng& rng) {
  const auto flip = [&rng] { return static_cast<char>(pick(rng, 1, 255)); };
  const auto put_length = [&frame](std::size_t length) {
    for (std::size_t byte = 0; byte < 4; ++byte) {
      frame[byte] = static_cast<char>(length >> (8 * byte));
    }
  };
  constexpr std::size_t kLine = 4 + 1 + 8;  // header, type, lease id
  const bool record =
      frame[4] == static_cast<char>(fabric::FrameType::shard_done) &&
      rng.bernoulli(0.5);
  switch (pick(rng, 0, 3) + (record ? 0 : 4)) {
    case 0: {
      const std::size_t other = pick(rng, 1, 9);  // all but shard_done (6)
      frame[4] = static_cast<char>(other < 6 ? other : other + 1);
      break;
    }
    case 1: {
      std::size_t head_end = kLine;
      for (int spaces = 0; spaces < 4; ++head_end) {
        spaces += frame[head_end] == ' ' ? 1 : 0;
      }
      frame[pick(rng, kLine, head_end - 1)] ^= flip();
      break;
    }
    case 2:
      frame[frame.size() - 1 - pick(rng, 0, 3)] ^= flip();
      break;
    case 3:
      frame.resize(frame.size() - pick(rng, 2, frame.size() - kLine));
      put_length(frame.size() - 4);
      break;
    case 4:
      put_length(0);
      break;
    case 5:
      put_length(fabric::kMaxFrameBytes + pick(rng, 1, 1000));
      break;
    case 6: {
      const std::size_t type = pick(rng, 10, 255);  // 10 stands for 0
      frame[4] = static_cast<char>(type == 10 ? 0 : type);
      break;
    }
    default:
      frame.resize(pick(rng, 1, frame.size() - 1));
      return true;
  }
  return false;
}

/// Replays fault schedule `seed` over a CoordinatorCore serving `campaign`
/// (which checkpoints); returns what went wrong, or an empty string.
std::string replay_fault_schedule(const Campaign& campaign,
                                  const std::vector<std::string>& lines,
                                  std::uint64_t seed) {
  constexpr std::size_t kMaxSteps = 4000;
  using Kind = fabric::WorkerStep::Kind;
  sim::Rng rng(seed);
  const std::string& path = campaign.spec().checkpoint_path;
  std::remove(path.c_str());
  std::ostringstream log;
  fabric::CoordinatorConfig config;
  config.lease.batch = std::size_t{1} << pick(rng, 0, 4);
  config.lease.lease_timeout_ms = 1000;
  config.log = &log;
  std::optional<fabric::CoordinatorCore> core(std::in_place, campaign, config);
  std::deque<Peer> workers;  // by connection number
  fabric::CoordinatorStats model;
  std::set<std::size_t> merged;  // indices merged or restored
  std::size_t torn = 0;          // mutated frames processed
  std::size_t stalls = 0;        // deadline jumps with leases outstanding
  std::size_t joins = 0;
  std::size_t faults = pick(rng, 0, 6);
  const std::size_t restart_at = pick(rng, 0, 150);
  std::uint64_t now = 0;
  std::string failure;  // a worker that failed where it must not

  const auto join = [&](bool rogue) {
    fabric::HelloBody hello;
    hello.spec_hash = campaign.spec().spec_hash();
    hello.seed = campaign.spec().seed + (rogue ? 1 : 0);
    hello.shard_count = campaign.scenario_count();
    workers.emplace_back(core->connect(), hello, rogue);
    ++joins;
  };
  // The core's sends reach their workers in order. A close ends the
  // worker's stream after them and drops what the driver has not read.
  const auto route = [&] {
    for (fabric::Outbound& out : core->take_outbox()) {
      Peer& peer = workers[out.conn];
      if (out.kind == fabric::Outbound::Kind::close) {
        peer.open = false;
        peer.in_flight.clear();
        continue;
      }
      peer.joined |= out.type == fabric::FrameType::hello_ok;
      peer.shut_down |= out.type == fabric::FrameType::shutdown;
      peer.inbox.push_back(fabric::Frame{out.type, std::move(out.payload)});
    }
  };
  // Whether `peer`'s worker can move: all but a read with nothing to read.
  const auto can_step = [&](Peer& peer) {
    return peer.alive && (peer.core.step(now).kind != Kind::read ||
                          !peer.inbox.empty() || !peer.open);
  };
  // One step of `peer`'s worker, as Worker::run takes it.
  const auto act = [&](Peer& peer) {
    try {
      const fabric::WorkerStep step = peer.core.step(now);
      if (step.kind == Kind::send && peer.open) {
        for (std::string_view bytes = step.bytes; !bytes.empty();) {
          std::size_t length = 4;
          for (std::size_t byte = 0; byte < 4; ++byte) {
            length += std::size_t{static_cast<unsigned char>(bytes[byte])}
                      << (8 * byte);
          }
          peer.in_flight.emplace_back(bytes.substr(0, length));
          bytes.remove_prefix(length);
        }
        peer.core.sent(now);
      } else if (step.kind == Kind::send) {
        peer.core.send_failed();
      } else if (step.kind == Kind::run) {
        peer.core.shard_done(lines[step.shard]);
      } else if (step.kind == Kind::exit) {
        peer.alive = false;
      } else if (peer.inbox.empty()) {
        peer.core.closed();
      } else {
        const fabric::Frame frame = std::move(peer.inbox.front());
        peer.inbox.pop_front();
        peer.core.receive(fabric::FrameView{frame.type, frame.payload});
      }
    } catch (const sim::ContractViolation& violation) {
      peer.alive = false;
      if ((peer.open || peer.shut_down) && failure.empty()) {
        failure = "worker " + std::to_string(peer.conn) +
                  " failed: " + violation.what();
      }
    }
  };
  // Serves `peer`'s next frame in flight, mutated or twice as the seed
  // says, and tells the model.
  const auto deliver = [&](Peer& peer) {
    std::string frame = std::move(peer.in_flight.front());
    peer.in_flight.pop_front();
    const auto type = static_cast<fabric::FrameType>(frame[4]);
    const bool record = type == fabric::FrameType::shard_done;
    bool torn_tail = false;
    if (type == fabric::FrameType::hello) {
      ++(peer.rogue ? model.workers_rejected : model.workers_joined);
    } else if (faults > 0 && !core->complete() &&
               rng.bernoulli(record ? 0.08 : 0.02)) {
      --faults;
      ++torn;
      ++model.workers_died;  // past its hello, so joined
      torn_tail = mutate(frame, rng);
    } else if (record && !core->complete()) {
      // After the header, the u64 lease id and "ckpt2 ", the scenario index.
      ++(merged.insert(std::stoull(frame.substr(19))).second
             ? model.shards_merged
             : model.duplicate_shards);
      if (rng.bernoulli(0.1)) {
        frame += frame;
        // The repeat of a completing copy is dropped unseen.
        if (merged.size() < lines.size()) ++model.duplicate_shards;
      }
    }
    peer.inbound.bytes += frame;
    fabric::serve(*core, peer.conn, peer.reader, now);
    if (torn_tail) {
      peer.alive = false;  // killed mid-frame: its stream ends here
      fabric::serve(*core, peer.conn, peer.reader, now);
    }
  };
  // The core's counters and log against the model; empty when they agree.
  const auto counters_differ = [&]() -> std::string {
    const fabric::CoordinatorStats& stats = core->stats();
    const std::string text = log.str();
    if (predicted(stats) == predicted(model) &&
        count_of(text, "duplicate completion") == stats.duplicate_shards &&
        count_of(text, "sent a torn or invalid frame") == torn &&
        count_of(text, "REJECTED") == stats.workers_rejected &&
        count_of(text, "expired without heartbeat") == stats.leases_expired &&
        stats.leases_expired >= stalls) {
      return "";
    }
    return "counters " + predicted(stats) + ", expired " +
           std::to_string(stats.leases_expired) + "; model " +
           predicted(model) + ", torn " + std::to_string(torn) + ", stalls " +
           std::to_string(stalls) + "; log:\n" + text;
  };

  for (std::size_t i = pick(rng, 1, 4); i > 0; --i) join(false);
  for (std::size_t step = 0; !core->done(); ++step) {
    if (!failure.empty()) return failure;
    if (step == kMaxSteps) {
      return "not done after " + std::to_string(kMaxSteps) + " steps";
    }
    if (step == restart_at) {
      // The coordinator dies; its fleet goes with it, its checkpoint stays.
      if (std::string why = counters_differ(); !why.empty()) {
        return "before the restart: " + why;
      }
      core.reset();
      workers.clear();
      model = {};
      torn = stalls = 0;
      log.str("");
      core.emplace(campaign, config);
      join(false);
    }
    std::vector<Peer*> open;
    std::vector<Peer*> movers;  // workers that can step, then senders
    for (Peer& peer : workers) {
      if (peer.open) open.push_back(&peer);
      if (can_step(peer)) movers.push_back(&peer);
    }
    const std::size_t actors = movers.size();
    for (Peer* peer : open) {
      if (!peer->in_flight.empty()) movers.push_back(peer);
    }
    // A correct core leaves no worker idle while work is pending: a dead
    // worker's leases return to pending and reach the parked at once, and
    // tick() pushes expired ones to them.
    if (movers.empty() && !core->complete()) {
      return "stuck at step " + std::to_string(step) +
             ": every worker waits while shards are pending; log:\n" +
             log.str();
    }
    bool tick = true;
    const std::size_t draw = pick(rng, 0, 99);
    const std::optional<std::uint64_t> deadline = core->next_deadline_ms();
    if (draw < 5 && faults > 0 && deadline.has_value() && !core->complete()) {
      --faults;  // a stall: every heartbeat late
      ++stalls;
      now = std::max(now, *deadline);
    } else if (draw < 10 && faults > 0 && !open.empty()) {
      --faults;  // a disconnect, mid-lease or not
      Peer& victim = *open[pick(rng, 0, open.size() - 1)];
      if (victim.joined) ++model.workers_died;
      victim.alive = false;
      core->disconnect(victim.conn, "closed its connection");
      // Half land as a failed send does, after the driver's tick: nothing
      // ticks again before the next input.
      tick = rng.bernoulli(0.5);
    } else if (draw < 14 && joins < 8) {
      join(rng.bernoulli(0.25));
    } else if (draw < 30) {
      now += pick(rng, 0, 200);
    } else if (!movers.empty()) {
      const std::size_t which = pick(rng, 0, movers.size() - 1);
      if (which < actors) {
        act(*movers[which]);
      } else {
        deliver(*movers[which]);
      }
    }
    if (tick) core->tick(now);
    route();
    if (std::none_of(workers.begin(), workers.end(),
                     std::mem_fn(&Peer::open)) &&
        !core->complete()) {
      join(false);  // nobody is left to serve the campaign
    }
  }
  // Every worker left must end quietly on its shutdown, or loudly where
  // the coordinator buried or rejected it.
  for (Peer& peer : workers) {
    for (int steps = 0; peer.alive && steps < 1000; ++steps) act(peer);
    if (peer.alive) return "worker " + std::to_string(peer.conn) + " hangs";
  }
  if (!failure.empty()) return failure;

  const CampaignReport report = core->finish();
  if (digest_dump(report) != read_file(kGoldenDigestsPath)) {
    return "merged digests differ from mixed_workloads.digests";
  }
  if (read_file(path) != read_file(kGoldenPath)) {
    return "compacted checkpoint differs from mixed_workloads.ckpt2";
  }
  if (merged.size() != lines.size() ||
      report.completed_shards() != lines.size()) {
    return std::to_string(merged.size()) + " shards merged, want every one";
  }
  return counters_differ();
}

TEST(GoldenDigests, SeededFaultSchedulesOverTheCoordinatorCoreReproduceIt) {
  constexpr std::uint64_t kSeeds = 1000;
  const std::vector<std::string> lines = golden_lines();
  ASSERT_EQ(lines.size(), 16u);
  TempFile checkpoint("fault_schedule");
  CampaignSpec spec = golden_spec();
  spec.checkpoint_path = checkpoint.path;
  const Campaign campaign(spec);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t seed = 1;
  for (std::size_t failed = 0; seed <= kSeeds && failed < 3; ++seed) {
    std::string failure;
    try {
      failure = replay_fault_schedule(campaign, lines, seed);
    } catch (const std::exception& error) {
      failure = std::string("threw: ") + error.what();
    }
    if (!failure.empty()) {
      ++failed;
      ADD_FAILURE() << "fault schedule seed " << seed
                    << " (replay_fault_schedule(campaign, lines, " << seed
                    << ")): " << failure;
    }
  }
  std::printf("replayed %llu fault schedules in %.2f s\n",
              static_cast<unsigned long long>(seed - 1),
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count());
}

}  // namespace
}  // namespace acute::report
