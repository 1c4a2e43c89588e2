// The distributed campaign fabric: a coordinator plus any number of worker
// processes over the pipe transport must reproduce a single-process,
// single-thread campaign bit-for-bit — merged digests AND compacted
// checkpoint bytes — for any worker count, lease batch size and kill
// schedule. The fault paths are exercised in-process: a worker killed
// mid-lease (WorkerConfig::max_shards closes the transport exactly like
// SIGKILL), a torn wire frame, a stalled lease expiring past its heartbeat
// deadline, duplicate completions from the re-lease race, and a mismatched
// worker rejected at the hello handshake.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign_testing.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/lease.hpp"
#include "fabric/transport.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "report/checkpoint.hpp"
#include "sim/contracts.hpp"
#include "sim/random.hpp"
#include "testbed/campaign.hpp"
#include "testbed/shard_context.hpp"

// The largest single heap request since the last reset: the wire fuzz
// checks that no mutated length makes a decoder allocate past the protocol
// cap. Every allocation form is replaced, so ASan pairs them consistently.
namespace {
std::atomic<std::size_t> g_largest_allocation{0};

void note_allocation(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_allocation(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation(size);
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  void* p = std::aligned_alloc(al, rounded == 0 ? al : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace acute::fabric {
namespace {

using namespace acute::sim::literals;
using phone::PhoneProfile;
using testbed::Campaign;
using testbed::CampaignReport;
using testbed::CampaignSpec;
using testbed::ScenarioGrid;
using testbed::WorkloadSpec;
using tools::ToolKind;

struct TempFile {
  explicit TempFile(const std::string& name) : path("fabric_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The resume/JSONL matrix grid from the frontier tests: 8 mixed shards
/// (2 profiles x 2 loss rates x 2 workloads), cheap enough to run many
/// times per test binary.
CampaignSpec small_spec() {
  ScenarioGrid grid;
  grid.profiles = {PhoneProfile::nexus5(), PhoneProfile::nexus4()};
  grid.emulated_rtts = {12_ms};
  grid.loss_rates = {0.0, 0.2};
  grid.workloads = {WorkloadSpec{ToolKind::icmp_ping},
                    WorkloadSpec{ToolKind::httping}};
  CampaignSpec spec;
  spec.seed = 77;
  spec.grid = grid;
  spec.probes_per_phone = 6;
  spec.probe_interval = 150_ms;
  spec.probe_timeout = 1_s;
  return spec;
}

/// `shards` minimal one-phone one-probe scenarios on a lazy
/// rtt x loss x reorder grid — the scaling shape shared with the frontier
/// and bench suites.
CampaignSpec scaled_spec(std::size_t shards) {
  ScenarioGrid grid;
  grid.emulated_rtts.clear();
  for (int i = 0; i < 50; ++i) {
    grid.emulated_rtts.push_back(sim::Duration::millis(2 + i));
  }
  grid.reorder = {false, true};
  const std::size_t loss_steps = (shards + 99) / 100;
  grid.loss_rates.clear();
  for (std::size_t i = 0; i < loss_steps; ++i) {
    grid.loss_rates.push_back(double(i) * (0.3 / double(loss_steps)));
  }
  CampaignSpec spec;
  spec.seed = 2016;
  spec.grid = grid;
  spec.probes_per_phone = 1;
  spec.probe_interval = 50_ms;
  spec.probe_timeout = 400_ms;
  spec.settle = 50_ms;
  return spec;
}

/// The fabric merge must reproduce the single-process fold to the last
/// bit: the IEEE-754 digest dumps must be equal strings.
void expect_reports_bit_identical(const CampaignReport& a,
                                  const CampaignReport& b) {
  EXPECT_EQ(testing::digest_dump(a), testing::digest_dump(b));
}

struct FabricRun {
  CampaignReport report;
  CoordinatorStats stats;
};

/// Coordinator on this thread, one fabric::Worker per config on its own
/// thread, connected by transport_pair — the in-process model of the
/// forked-worker topology (a worker whose max_shards fires returns
/// mid-lease and its transport closes, exactly what SIGKILL looks like).
FabricRun run_fabric(const CampaignSpec& spec,
                     const std::vector<WorkerConfig>& worker_configs,
                     LeaseConfig lease = {}, std::ostream* log = nullptr) {
  std::vector<std::unique_ptr<Transport>> coordinator_ends;
  std::vector<std::thread> threads;
  for (const WorkerConfig& worker_config : worker_configs) {
    auto ends = transport_pair();
    coordinator_ends.push_back(std::move(ends.first));
    threads.emplace_back(
        [end = std::move(ends.second), spec, worker_config]() mutable {
          Worker worker(spec, worker_config);
          (void)worker.run(*end);
        });
  }
  CoordinatorConfig config;
  config.lease = lease;
  config.log = log;
  Coordinator coordinator(spec, config);
  CampaignReport report = coordinator.run(std::move(coordinator_ends));
  for (std::thread& thread : threads) thread.join();
  return FabricRun{std::move(report), coordinator.stats()};
}

// ---------------------------------------------------------------- LeaseTable

LeaseConfig fast_lease() {
  LeaseConfig config;
  config.batch = 4;
  config.lease_timeout_ms = 100;
  config.expiry_backoff = 2.0;
  config.max_timeout_ms = 1000;
  return config;
}

TEST(LeaseTable, GrantsLowestContiguousRunCappedAtBatch) {
  LeaseTable table(std::vector<bool>(10, true), fast_lease());
  const auto first = table.grant(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->begin, 0u);
  EXPECT_EQ(first->end, 4u);
  EXPECT_EQ(first->deadline_ms, 100u);
  const auto second = table.grant(0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->begin, 4u);
  EXPECT_EQ(second->end, 8u);
  const auto third = table.grant(0);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->begin, 8u);
  EXPECT_EQ(third->end, 10u);  // short tail, not padded past the space
  EXPECT_FALSE(table.grant(0).has_value());
  EXPECT_EQ(table.pending_count(), 0u);
  EXPECT_EQ(table.outstanding_leases(), 3u);
  EXPECT_FALSE(table.all_complete());
}

TEST(LeaseTable, NonLeasableIndicesSplitRunsAndNeverLease) {
  // Indices 1 and 4 are restored-from-checkpoint: runs must break around
  // them, and all_complete must not wait for them.
  LeaseTable table({true, false, true, true, false, true}, fast_lease());
  EXPECT_EQ(table.leasable_count(), 4u);
  const auto first = table.grant(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->begin, 0u);
  EXPECT_EQ(first->end, 1u);
  const auto second = table.grant(0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->begin, 2u);
  EXPECT_EQ(second->end, 4u);
  const auto third = table.grant(0);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->begin, 5u);
  EXPECT_EQ(third->end, 6u);
  for (const std::size_t index : {0u, 2u, 3u, 5u}) {
    EXPECT_TRUE(table.complete(index));
  }
  EXPECT_TRUE(table.all_complete());
}

TEST(LeaseTable, HeartbeatExtendsDeadlineAndExpiryReQueuesExactlyOnce) {
  LeaseTable table(std::vector<bool>(4, true), fast_lease());
  const auto lease = table.grant(0);
  ASSERT_TRUE(lease.has_value());
  EXPECT_FALSE(table.heartbeat(lease->id + 99, 10));  // unknown lease
  EXPECT_TRUE(table.heartbeat(lease->id, 80));        // deadline -> 180

  EXPECT_TRUE(table.expire(100).empty());  // old deadline passed, extended
  const std::vector<Lease> expired = table.expire(180);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front().id, lease->id);
  EXPECT_EQ(table.pending_count(), 4u);
  // Exactly once: a second expiry sweep at the same instant finds nothing,
  // and the indices re-queued above are pending a single time each.
  EXPECT_TRUE(table.expire(180).empty());
  EXPECT_EQ(table.outstanding_leases(), 0u);
  const auto release = table.grant(200);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->begin, 0u);
  EXPECT_EQ(release->end, 4u);
  // Backoff: one prior expiry doubles the 100ms timeout.
  EXPECT_EQ(release->deadline_ms, 200u + 200u);
  EXPECT_FALSE(table.grant(200).has_value());  // re-queued once, not twice
  EXPECT_FALSE(table.heartbeat(lease->id, 210));  // the expired id is gone
}

TEST(LeaseTable, ExpiryBackoffIsCappedAtMaxTimeout) {
  LeaseTable table(std::vector<bool>(2, true), fast_lease());
  std::uint64_t now = 0;
  for (int round = 0; round < 6; ++round) {
    const auto lease = table.grant(now);
    ASSERT_TRUE(lease.has_value());
    now = lease->deadline_ms;
    ASSERT_EQ(table.expire(now).size(), 1u);
  }
  const auto capped = table.grant(now);
  ASSERT_TRUE(capped.has_value());
  // 100ms * 2^6 would be 6400; the config caps the timeout at 1000.
  EXPECT_EQ(capped->deadline_ms - now, 1000u);
}

TEST(LeaseTable, CompleteIsIdempotentAndRevokeReQueuesTheRest) {
  LeaseTable table(std::vector<bool>(4, true), fast_lease());
  const auto lease = table.grant(0);
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(table.complete(0));
  EXPECT_FALSE(table.complete(0));  // the duplicate-completion rule
  table.revoke(lease->id);
  EXPECT_EQ(table.done_count(), 1u);
  EXPECT_EQ(table.pending_count(), 3u);  // 0 stays done, 1..3 re-queued
  table.revoke(lease->id + 7);           // unknown id: no-op
  const auto release = table.grant(10);
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->begin, 1u);
  EXPECT_EQ(release->end, 4u);
  for (const std::size_t index : {1u, 2u, 3u}) {
    EXPECT_TRUE(table.complete(index));
  }
  table.finish(release->id);
  EXPECT_TRUE(table.all_complete());
  EXPECT_EQ(table.outstanding_leases(), 0u);
}

// ---------------------------------------------------------------------- wire

TEST(Wire, BodiesAndFramesRoundTripOverThePipeTransport) {
  HelloBody hello;
  hello.spec_hash = 0x1234'5678'9abc'def0ull;
  hello.seed = 2016;
  hello.shard_count = 100'000;
  const HelloBody hello2 = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello2.protocol, hello.protocol);
  EXPECT_EQ(hello2.spec_hash, hello.spec_hash);
  EXPECT_EQ(hello2.seed, hello.seed);
  EXPECT_EQ(hello2.shard_count, hello.shard_count);

  const LeaseGrantBody grant2 =
      decode_lease_grant(encode_lease_grant(LeaseGrantBody{42, 16, 32}));
  EXPECT_EQ(grant2.lease_id, 42u);
  EXPECT_EQ(grant2.begin, 16u);
  EXPECT_EQ(grant2.end, 32u);
  EXPECT_EQ(decode_lease_id(encode_lease_id(7)), 7u);

  auto ends = transport_pair();
  write_frame(*ends.first, FrameType::hello, encode_hello(hello));
  write_frame(*ends.first, FrameType::lease_request);
  Frame frame;
  ASSERT_TRUE(read_frame(*ends.second, frame));
  EXPECT_EQ(frame.type, FrameType::hello);
  EXPECT_EQ(frame.payload, encode_hello(hello));
  ASSERT_TRUE(read_frame(*ends.second, frame));
  EXPECT_EQ(frame.type, FrameType::lease_request);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(Wire, ShardDoneFrameCarriesTheCheckpointLineVerbatim) {
  // One serialization for disk and wire: the shard_done payload is exactly
  // the ckpt2 line, so frame -> parse -> re-render is the identity.
  const Campaign campaign(small_spec());
  testbed::ShardContext context;
  const report::ShardCheckpoint record = campaign.run_shard_record(3, context);
  const std::string line = report::render_checkpoint_record(record);

  ShardDoneBody done;
  done.lease_id = 9;
  done.record_line = line;
  const ShardDoneBody decoded = decode_shard_done(encode_shard_done(done));
  EXPECT_EQ(decoded.lease_id, 9u);
  EXPECT_EQ(decoded.record_line, line);

  report::ShardCheckpoint parsed;
  ASSERT_TRUE(report::parse_checkpoint_record(decoded.record_line, parsed));
  EXPECT_EQ(parsed.summary.info.scenario_index, 3u);
  EXPECT_EQ(parsed.summary.info.shard_seed, record.summary.info.shard_seed);
  EXPECT_EQ(parsed.spec_hash, record.spec_hash);
  EXPECT_EQ(report::render_checkpoint_record(parsed), line);
}

TEST(Wire, CleanEofAtFrameBoundaryIsAQuietFalse) {
  auto ends = transport_pair();
  write_frame(*ends.first, FrameType::heartbeat, encode_lease_id(1));
  ends.first.reset();  // peer gone after a complete frame
  Frame frame;
  ASSERT_TRUE(read_frame(*ends.second, frame));
  EXPECT_EQ(frame.type, FrameType::heartbeat);
  EXPECT_FALSE(read_frame(*ends.second, frame));
}

TEST(Wire, TornFramesThrowLoudly) {
  const auto send_raw = [](Transport& transport,
                           const std::vector<unsigned char>& bytes) {
    transport.send_all(bytes.data(), bytes.size());
  };
  Frame frame;
  {
    // EOF inside a frame: header promises 10 bytes, only 2 arrive.
    auto ends = transport_pair();
    send_raw(*ends.first, {10, 0, 0, 0, 6, 1});
    ends.first.reset();
    EXPECT_THROW((void)read_frame(*ends.second, frame),
                 sim::ContractViolation);
  }
  {
    // Zero length: no room for even the type byte.
    auto ends = transport_pair();
    send_raw(*ends.first, {0, 0, 0, 0});
    EXPECT_THROW((void)read_frame(*ends.second, frame),
                 sim::ContractViolation);
  }
  {
    // Oversize length: beyond kMaxFrameBytes is garbage, not data.
    auto ends = transport_pair();
    send_raw(*ends.first, {1, 0, 0, 0xff});
    EXPECT_THROW((void)read_frame(*ends.second, frame),
                 sim::ContractViolation);
  }
  {
    // Unknown frame type.
    auto ends = transport_pair();
    send_raw(*ends.first, {1, 0, 0, 0, 99});
    EXPECT_THROW((void)read_frame(*ends.second, frame),
                 sim::ContractViolation);
  }
}

/// Replays a fixed byte stream in scripted chunks: recv_some returns at
/// most the next chunk's bytes (the last chunk repeats; chunks are
/// non-zero), then end-of-stream.
class ScriptedTransport final : public Transport {
 public:
  ScriptedTransport(std::string bytes, std::vector<std::size_t> chunks)
      : bytes_(std::move(bytes)), chunks_(std::move(chunks)) {}

  void send_all(const void*, std::size_t) override {}
  std::size_t recv_some(void* data, std::size_t size) override {
    std::size_t chunk = chunks_.empty() ? bytes_.size() : chunks_.front();
    if (chunks_.size() > 1) chunks_.erase(chunks_.begin());
    chunk = std::min({chunk, size, bytes_.size() - at_});
    std::copy_n(bytes_.data() + at_, chunk, static_cast<char*>(data));
    at_ += chunk;
    return chunk;
  }
  [[nodiscard]] int fd() const override { return -1; }

 private:
  std::string bytes_;
  std::vector<std::size_t> chunks_;
  std::size_t at_ = 0;
};

/// Everything a decoder made of a stream: its frames in order, then how the
/// stream ended — a clean close or a torn-frame ContractViolation.
struct Decoded {
  std::vector<std::pair<FrameType, std::string>> frames;
  bool torn = false;

  bool operator==(const Decoded&) const = default;
};

Decoded decode_per_frame(const std::string& bytes) {
  ScriptedTransport transport(bytes, {});
  Decoded decoded;
  Frame frame;
  try {
    while (read_frame(transport, frame)) {
      decoded.frames.emplace_back(frame.type, frame.payload);
    }
  } catch (const sim::ContractViolation&) {
    decoded.torn = true;
  }
  return decoded;
}

Decoded decode_buffered(const std::string& bytes,
                        std::vector<std::size_t> chunks) {
  ScriptedTransport transport(bytes, std::move(chunks));
  FrameReader reader(transport);
  Decoded decoded;
  try {
    while (reader.fill()) {
      FrameView frame;
      while (reader.next(frame)) {
        decoded.frames.emplace_back(frame.type, std::string(frame.payload));
      }
    }
  } catch (const sim::ContractViolation&) {
    decoded.torn = true;
  }
  return decoded;
}

/// One of every frame type, coalesced as a worker's queued sends are,
/// including a real shard_done record.
std::string mixed_stream() {
  const Campaign campaign(small_spec());
  testbed::ShardContext context;
  HelloBody hello;
  hello.spec_hash = 0x0123'4567'89ab'cdefull;
  hello.seed = 77;
  hello.shard_count = 8;
  std::string stream;
  append_frame(stream, FrameType::hello, encode_hello(hello));
  append_frame(stream, FrameType::hello_ok);
  append_frame(stream, FrameType::reject, "campaign seed mismatch");
  append_frame(stream, FrameType::lease_request);
  append_frame(stream, FrameType::lease_grant,
               encode_lease_grant(LeaseGrantBody{3, 2, 4}));
  append_frame(stream, FrameType::heartbeat, encode_lease_id(3));
  append_frame(
      stream, FrameType::shard_done,
      encode_shard_done(ShardDoneBody{
          3, report::render_checkpoint_record(
                 campaign.run_shard_record(2, context))}));
  append_frame(stream, FrameType::lease_done, encode_lease_id(3));
  append_frame(stream, FrameType::idle);
  append_frame(stream, FrameType::shutdown);
  return stream;
}

TEST(Wire, FrameReaderYieldsWhatReadFrameYieldsAtEverySplit) {
  const std::string stream = mixed_stream();
  const Decoded expected = decode_per_frame(stream);
  ASSERT_EQ(expected.frames.size(), 10u);
  ASSERT_FALSE(expected.torn);
  EXPECT_EQ(expected.frames[6].first, FrameType::shard_done);
  for (std::size_t split = 1; split <= stream.size(); ++split) {
    SCOPED_TRACE("split at byte " + std::to_string(split));
    EXPECT_EQ(decode_buffered(stream, {split, stream.size()}), expected);
  }
  EXPECT_EQ(decode_buffered(stream, {1}), expected);  // a byte per recv

  // The same stream cut anywhere inside a frame is torn for both; cut at a
  // frame boundary it is a clean close after the frames before the cut.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string prefix = stream.substr(0, cut);
    EXPECT_EQ(decode_buffered(prefix, {7}), decode_per_frame(prefix));
  }
}

TEST(Wire, MutatedStreamsDecodeToFramesOrLoudTornFrames) {
  // Seeded byte mutations of a coalesced stream: each decoder may yield
  // frames, then end cleanly or with a ContractViolation; no other
  // exception, no allocation past the protocol cap, and both decoders
  // agree on every stream. The yielded bodies go through their decoders
  // (shard_done through the ckpt2 parser, from the view) under the same
  // rule.
  const std::string stream = mixed_stream();
  sim::Rng rng(20261017);
  const auto pick = [&rng](std::size_t below) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(below) - 1));
  };
  std::size_t torn = 0;
  std::size_t clean = 0;
  g_largest_allocation = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::string bytes = stream;
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t e = 0; e < edits && !bytes.empty(); ++e) {
      const std::size_t at = pick(bytes.size());
      switch (rng.uniform_int(0, 4)) {
        case 0:  // flip a bit
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << pick(8)));
          break;
        case 1:  // overwrite a byte
          bytes[at] = static_cast<char>(pick(256));
          break;
        case 2:  // insert a byte
          bytes.insert(at, 1, static_cast<char>(pick(256)));
          break;
        case 3:  // drop a byte
          bytes.erase(at, 1);
          break;
        default:  // truncate
          bytes.resize(at);
          break;
      }
    }
    std::vector<std::size_t> chunks;
    for (int c = 0; c < 4; ++c) chunks.push_back(1 + pick(300));
    Decoded buffered;
    try {
      buffered = decode_buffered(bytes, chunks);
      EXPECT_EQ(buffered, decode_per_frame(bytes));
      for (const auto& [type, payload] : buffered.frames) {
        try {
          switch (type) {
            case FrameType::hello:
              (void)decode_hello(payload);
              break;
            case FrameType::lease_grant:
              (void)decode_lease_grant(payload);
              break;
            case FrameType::heartbeat:
            case FrameType::lease_done:
              (void)decode_lease_id(payload);
              break;
            case FrameType::shard_done: {
              report::ShardCheckpoint record;
              (void)report::parse_checkpoint_record(
                  view_shard_done(payload).record_line, record);
              break;
            }
            default:
              break;
          }
        } catch (const sim::ContractViolation&) {
        }
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped the wire contract: " << error.what();
    }
    ++(buffered.torn ? torn : clean);
  }
  EXPECT_LE(g_largest_allocation.load(), kMaxFrameBytes);
  EXPECT_GT(torn, 0u);   // both endings were exercised
  EXPECT_GT(clean, 0u);
}

// -------------------------------------------------------------- integration

/// THE acceptance pin: coordinator + 3 workers must equal a single-process
/// single-thread run bit-for-bit, merged digests and compacted checkpoint
/// bytes both.
TEST(Fabric, MatchesSingleProcessRunBitIdenticalIncludingCheckpointBytes) {
  TempFile reference_ckpt("reference");
  CampaignSpec reference_spec = small_spec();
  reference_spec.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(reference_spec).run(1);
  report::compact_checkpoint(reference_ckpt.path);

  TempFile fabric_ckpt("fabric");
  CampaignSpec fabric_spec = small_spec();
  fabric_spec.checkpoint_path = fabric_ckpt.path;
  LeaseConfig lease;
  lease.batch = 2;  // 8 shards over 3 workers: real lease interleaving
  const FabricRun fabric =
      run_fabric(fabric_spec, {WorkerConfig{}, WorkerConfig{}, WorkerConfig{}},
                 lease);

  expect_reports_bit_identical(fabric.report, reference);
  EXPECT_EQ(fabric.stats.workers_joined, 3u);
  EXPECT_EQ(fabric.stats.workers_died, 0u);
  EXPECT_EQ(fabric.stats.shards_merged, reference.shard_count());
  const std::string reference_bytes = read_file(reference_ckpt.path);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(read_file(fabric_ckpt.path), reference_bytes);
}

TEST(Fabric, KilledWorkerMidLeaseIsReLeasedBitIdentical) {
  const CampaignReport reference = Campaign(scaled_spec(200)).run(1);

  // Worker 0 dies after 5 shards — mid-lease (batch 4 means it is 1 shard
  // into its second lease), no lease_done, transport closed: SIGKILL as the
  // coordinator sees it. The survivors absorb the re-leased range.
  LeaseConfig lease;
  lease.batch = 4;
  std::ostringstream log;
  WorkerConfig killed;
  killed.max_shards = 5;
  const FabricRun fabric = run_fabric(
      scaled_spec(200), {killed, WorkerConfig{}, WorkerConfig{}}, lease, &log);

  expect_reports_bit_identical(fabric.report, reference);
  EXPECT_EQ(fabric.stats.workers_joined, 3u);
  EXPECT_EQ(fabric.stats.workers_died, 1u);
  // The fifth shard_done left with the worker's last send before it died,
  // so only the other 3 shards of its second lease return.
  EXPECT_NE(log.str().find("closed its connection; re-leasing 3 shards"),
            std::string::npos)
      << log.str();
}

TEST(Fabric, RejectsMismatchedWorkersLoudlyWhileTheRestFinish) {
  const CampaignSpec spec = small_spec();
  CampaignSpec wrong_seed = spec;
  wrong_seed.seed = spec.seed + 1;
  CampaignSpec wrong_shape = spec;
  wrong_shape.grid->loss_rates.push_back(0.3);  // different grid, hash moves

  auto good = transport_pair();
  auto bad_seed = transport_pair();
  auto bad_shape = transport_pair();
  std::string seed_error;
  std::string shape_error;
  std::thread bad_seed_thread(
      [end = std::move(bad_seed.second), wrong_seed, &seed_error]() mutable {
        try {
          Worker worker(wrong_seed);
          (void)worker.run(*end);
        } catch (const sim::ContractViolation& violation) {
          seed_error = violation.what();
        }
      });
  std::thread bad_shape_thread(
      [end = std::move(bad_shape.second), wrong_shape,
       &shape_error]() mutable {
        try {
          Worker worker(wrong_shape);
          (void)worker.run(*end);
        } catch (const sim::ContractViolation& violation) {
          shape_error = violation.what();
        }
      });
  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });

  std::vector<std::unique_ptr<Transport>> ends;
  ends.push_back(std::move(good.first));
  ends.push_back(std::move(bad_seed.first));
  ends.push_back(std::move(bad_shape.first));
  std::ostringstream log;
  CoordinatorConfig config;
  config.log = &log;
  Coordinator coordinator(spec, config);
  const CampaignReport report = coordinator.run(std::move(ends));
  bad_seed_thread.join();
  bad_shape_thread.join();
  good_thread.join();

  // Both mismatches die loudly on their own side AND in the coordinator's
  // log; the healthy worker completes the campaign alone, bit-identical.
  EXPECT_NE(seed_error.find("rejected handshake"), std::string::npos);
  EXPECT_NE(seed_error.find("seed mismatch"), std::string::npos);
  EXPECT_NE(shape_error.find("rejected handshake"), std::string::npos);
  EXPECT_NE(shape_error.find("hash mismatch"), std::string::npos);
  EXPECT_EQ(coordinator.stats().workers_rejected, 2u);
  EXPECT_EQ(coordinator.stats().workers_joined, 1u);
  expect_reports_bit_identical(report, Campaign(small_spec()).run(1));
}

TEST(Fabric, DuplicateCompletionsFromTheReLeaseRaceAreTolerated) {
  // Hand-driven worker: obeys the protocol but reports the first shard of
  // each lease twice — exactly what a stalled worker whose lease expired
  // and was re-run elsewhere looks like. The first copy merges, the second
  // is counted and dropped, and the result stays bit-identical.
  const CampaignSpec spec = small_spec();
  const Campaign campaign(spec);
  auto ends = transport_pair();

  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 4;
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread([&coordinator, &merged,
                                  end = std::move(ends.first)]() mutable {
    std::vector<std::unique_ptr<Transport>> workers;
    workers.push_back(std::move(end));
    merged = coordinator.run(std::move(workers));
  });

  Transport& wire = *ends.second;
  HelloBody hello;
  hello.spec_hash = spec.spec_hash();
  hello.seed = spec.seed;
  hello.shard_count = campaign.scenario_count();
  write_frame(wire, FrameType::hello, encode_hello(hello));
  Frame frame;
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::hello_ok);

  // Our writes race the coordinator's post-campaign close exactly as a real
  // worker's do (the campaign completes at OUR final shard_done): on a
  // failed send, a buffered shutdown frame means we are simply done.
  bool serving = true;
  const auto send_checked = [&wire, &serving](FrameType type,
                                              const std::string& payload) {
    try {
      write_frame(wire, type, payload);
    } catch (const sim::ContractViolation&) {
      serving = false;
      Frame pending;
      ASSERT_TRUE(read_frame(wire, pending));
      ASSERT_EQ(pending.type, FrameType::shutdown);
    }
  };

  testbed::ShardContext context;
  while (serving) {
    send_checked(FrameType::lease_request, {});
    if (!serving) break;
    ASSERT_TRUE(read_frame(wire, frame));
    switch (frame.type) {
      case FrameType::shutdown:
        serving = false;
        break;
      case FrameType::lease_grant: {
        const LeaseGrantBody lease = decode_lease_grant(frame.payload);
        for (std::uint64_t index = lease.begin;
             serving && index < lease.end; ++index) {
          send_checked(FrameType::heartbeat, encode_lease_id(lease.lease_id));
          if (!serving) break;
          ShardDoneBody done;
          done.lease_id = lease.lease_id;
          done.record_line = report::render_checkpoint_record(
              campaign.run_shard_record(static_cast<std::size_t>(index),
                                        context));
          send_checked(FrameType::shard_done, encode_shard_done(done));
          if (serving && index == lease.begin) {  // the duplicate
            send_checked(FrameType::shard_done, encode_shard_done(done));
          }
        }
        if (serving) {
          send_checked(FrameType::lease_done, encode_lease_id(lease.lease_id));
        }
        break;
      }
      default:
        FAIL() << "unexpected frame type "
               << static_cast<int>(frame.type);
    }
  }
  coordinator_thread.join();

  ASSERT_TRUE(merged.has_value());
  // 8 shards / batch 4 = 2 leases, one duplicated head each.
  EXPECT_EQ(coordinator.stats().duplicate_shards, 2u);
  EXPECT_EQ(coordinator.stats().shards_merged, 8u);
  EXPECT_NE(log.str().find("duplicate completion"), std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
}

TEST(Fabric, TornFrameBuriesTheWorkerAndItsWorkIsReLeased) {
  // A worker that takes a lease and then sends garbage is compromised; the
  // coordinator must bury it, re-lease its range and finish the campaign
  // through the healthy worker — still bit-identical.
  const CampaignSpec spec = small_spec();
  auto evil = transport_pair();
  auto good = transport_pair();

  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread(
      [&coordinator, &merged, evil_end = std::move(evil.first),
       good_end = std::move(good.first)]() mutable {
        std::vector<std::unique_ptr<Transport>> workers;
        workers.push_back(std::move(evil_end));
        workers.push_back(std::move(good_end));
        merged = coordinator.run(std::move(workers));
      });

  // Evil handshakes correctly and takes a lease first...
  Transport& wire = *evil.second;
  HelloBody hello;
  hello.spec_hash = spec.spec_hash();
  hello.seed = spec.seed;
  hello.shard_count = Campaign(spec).scenario_count();
  write_frame(wire, FrameType::hello, encode_hello(hello));
  Frame frame;
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::hello_ok);
  write_frame(wire, FrameType::lease_request);
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::lease_grant);
  // ...then emits a frame with an unknown type byte.
  const unsigned char garbage[] = {1, 0, 0, 0, 99};
  wire.send_all(garbage, sizeof garbage);

  // Only now start the healthy worker: the evil one provably held a lease.
  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });
  coordinator_thread.join();
  good_thread.join();

  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(coordinator.stats().workers_died, 1u);
  EXPECT_NE(log.str().find("torn"), std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
}

TEST(Fabric, StoresWorkerLinesVerbatimAndBuriesNonCanonicalOnes) {
  // The coordinator appends each validated shard_done line as received
  // instead of rendering the parsed record again. A scripted worker sends
  // one line without its '\n' — it must land as exactly one checkpoint
  // line — and then a complete line with a non-canonical token, which must
  // bury the worker (its lease re-runs on a healthy one). Either way the
  // compacted checkpoint stays byte-identical to a single-thread run.
  TempFile reference_ckpt("verbatim_reference");
  {
    CampaignSpec reference = small_spec();
    reference.checkpoint_path = reference_ckpt.path;
    (void)Campaign(reference).run(1);
    report::compact_checkpoint(reference_ckpt.path);
  }

  TempFile checkpoint("verbatim");
  CampaignSpec spec = small_spec();
  spec.checkpoint_path = checkpoint.path;
  const Campaign campaign(spec);
  auto scripted = transport_pair();
  auto good = transport_pair();
  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread(
      [&coordinator, &merged, scripted_end = std::move(scripted.first),
       good_end = std::move(good.first)]() mutable {
        std::vector<std::unique_ptr<Transport>> workers;
        workers.push_back(std::move(scripted_end));
        workers.push_back(std::move(good_end));
        merged = coordinator.run(std::move(workers));
      });

  Transport& wire = *scripted.second;
  HelloBody hello;
  hello.spec_hash = spec.spec_hash();
  hello.seed = spec.seed;
  hello.shard_count = campaign.scenario_count();
  write_frame(wire, FrameType::hello, encode_hello(hello));
  Frame frame;
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::hello_ok);
  testbed::ShardContext context;
  const auto line_of = [&](std::uint64_t index) {
    return report::render_checkpoint_record(
        campaign.run_shard_record(static_cast<std::size_t>(index), context));
  };

  // Lease 1: the first line newline-less, the second as rendered.
  write_frame(wire, FrameType::lease_request);
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::lease_grant);
  const LeaseGrantBody first = decode_lease_grant(frame.payload);
  ASSERT_EQ(first.end - first.begin, 2u);
  std::string expected_bytes;
  for (std::uint64_t index = first.begin; index < first.end; ++index) {
    ShardDoneBody done;
    done.lease_id = first.lease_id;
    done.record_line = line_of(index);
    expected_bytes += done.record_line;
    if (index == first.begin) done.record_line.pop_back();
    write_frame(wire, FrameType::shard_done, encode_shard_done(done));
  }
  write_frame(wire, FrameType::lease_done, encode_lease_id(first.lease_id));
  // The reply to the next request proves both records were handled.
  write_frame(wire, FrameType::lease_request);
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::lease_grant);
  EXPECT_EQ(read_file(checkpoint.path), expected_bytes);

  // Lease 2: a complete record whose scenario index has a leading zero.
  // The istream parser read it as the same record; stored verbatim, it
  // would have put non-canonical bytes in the checkpoint.
  const LeaseGrantBody second = decode_lease_grant(frame.payload);
  ShardDoneBody done;
  done.lease_id = second.lease_id;
  done.record_line = line_of(second.begin);
  const std::string prefix = "ckpt2 " + std::to_string(second.begin) + ' ';
  ASSERT_EQ(done.record_line.rfind(prefix, 0), 0u);
  done.record_line.insert(6, "0");
  write_frame(wire, FrameType::shard_done, encode_shard_done(done));
  // Hang up rather than wait for the verdict: the coordinator reads the
  // frame before the EOF, and its log below tells a burial for the bad
  // line apart from a plain disconnect.
  scripted.second.reset();

  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });
  coordinator_thread.join();
  good_thread.join();

  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(coordinator.stats().workers_died, 1u);
  EXPECT_NE(log.str().find("torn or invalid frame"), std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
  const std::string reference_bytes = read_file(reference_ckpt.path);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(read_file(checkpoint.path), reference_bytes);
}

TEST(Fabric, HeartbeatExpiryReLeasesAStalledRange) {
  // A worker that takes a lease and then never heartbeats: its deadline
  // passes, the range re-enters pending with backoff, and the parked
  // healthy worker is pushed the re-leased grant. The stalled worker stays
  // connected the whole time — stall, not death.
  const CampaignSpec spec = small_spec();
  auto stalled = transport_pair();
  auto good = transport_pair();

  std::optional<CampaignReport> merged;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.lease.lease_timeout_ms = 50;  // stall detection worth waiting for
  config.log = &log;
  Coordinator coordinator(spec, config);
  std::thread coordinator_thread(
      [&coordinator, &merged, stalled_end = std::move(stalled.first),
       good_end = std::move(good.first)]() mutable {
        std::vector<std::unique_ptr<Transport>> workers;
        workers.push_back(std::move(stalled_end));
        workers.push_back(std::move(good_end));
        merged = coordinator.run(std::move(workers));
      });

  // The stalling worker joins and takes a lease before the healthy worker
  // exists, so the stall provably covers real work...
  Transport& wire = *stalled.second;
  HelloBody hello;
  hello.spec_hash = spec.spec_hash();
  hello.seed = spec.seed;
  hello.shard_count = Campaign(spec).scenario_count();
  write_frame(wire, FrameType::hello, encode_hello(hello));
  Frame frame;
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::hello_ok);
  write_frame(wire, FrameType::lease_request);
  ASSERT_TRUE(read_frame(wire, frame));
  ASSERT_EQ(frame.type, FrameType::lease_grant);

  // ...then goes silent until shutdown.
  std::thread good_thread([end = std::move(good.second), spec]() mutable {
    Worker worker(spec);
    (void)worker.run(*end);
  });
  ASSERT_TRUE(read_frame(wire, frame));
  EXPECT_EQ(frame.type, FrameType::shutdown);
  coordinator_thread.join();
  good_thread.join();

  ASSERT_TRUE(merged.has_value());
  EXPECT_GE(coordinator.stats().leases_expired, 1u);
  EXPECT_EQ(coordinator.stats().workers_died, 0u);
  EXPECT_NE(log.str().find("expired without heartbeat"), std::string::npos);
  expect_reports_bit_identical(*merged, Campaign(small_spec()).run(1));
}

TEST(Fabric, CoordinatorResumesFromItsCheckpoint) {
  const CampaignReport reference = Campaign(small_spec()).run(1);
  TempFile reference_ckpt("resume_reference");
  {
    CampaignSpec full = small_spec();
    full.checkpoint_path = reference_ckpt.path;
    (void)Campaign(full).run(1);
    report::compact_checkpoint(reference_ckpt.path);
  }

  // A single-process run killed after 3 shards leaves a checkpoint; a
  // fresh coordinator restores it and leases only the remaining 5 — the
  // merged report and the final checkpoint bytes match an uninterrupted
  // run exactly.
  TempFile checkpoint("resume");
  {
    CampaignSpec partial = small_spec();
    partial.checkpoint_path = checkpoint.path;
    partial.max_shards = 3;
    (void)Campaign(partial).run(1);
  }
  CampaignSpec resumed = small_spec();
  resumed.checkpoint_path = checkpoint.path;
  LeaseConfig lease;
  lease.batch = 2;
  std::ostringstream log;
  const FabricRun fabric =
      run_fabric(resumed, {WorkerConfig{}, WorkerConfig{}}, lease, &log);

  EXPECT_NE(log.str().find("restored 3 shards"), std::string::npos);
  EXPECT_EQ(fabric.stats.shards_merged, 5u);
  EXPECT_EQ(fabric.report.completed_shards(), fabric.report.shard_count());
  expect_reports_bit_identical(fabric.report, reference);
  EXPECT_EQ(read_file(checkpoint.path), read_file(reference_ckpt.path));

  // A one-worker coordinator tick and resume: its appends arrive in
  // ascending order, so neither the restore nor either closing compaction
  // rewrites the file — it keeps its inode — and the bytes still match.
  TempFile ticked("resume_one_worker");
  ino_t inode = 0;
  for (const std::size_t cap : {std::size_t{3}, std::size_t{0}}) {
    CampaignSpec tick = small_spec();
    tick.checkpoint_path = ticked.path;
    tick.max_shards = cap;
    const FabricRun run = run_fabric(tick, {WorkerConfig{}}, lease);
    EXPECT_EQ(run.stats.shards_merged, cap == 0 ? 5u : 3u);
    struct stat info {};
    ASSERT_EQ(::stat(ticked.path.c_str(), &info), 0);
    if (cap == 0) {
      EXPECT_EQ(info.st_ino, inode);
      expect_reports_bit_identical(run.report, reference);
    }
    inode = info.st_ino;
  }
  EXPECT_EQ(read_file(ticked.path), read_file(reference_ckpt.path));
}

}  // namespace
}  // namespace acute::fabric
