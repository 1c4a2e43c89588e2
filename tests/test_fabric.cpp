// The distributed campaign fabric: the lease table, the wire codec, the
// coordinator over real pipe transports (a worker whose transport dies
// under it mid-lease, as SIGKILL would close it; mismatched workers
// rejected at the hello; a checkpoint write failure; a resume from the
// coordinator's own checkpoint), and both sans-I/O cores driven frame by
// frame on a fake clock: the WorkerCore (its lease prefetch, send cadence,
// failed-send rule and what any coordinator bytes can do to it) and the
// CoordinatorCore. The seeded fault-schedule explorer over both cores lives
// beside the golden files, in test_golden_checkpoint.cpp.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <atomic>
#include <csignal>
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
#include <string_view>
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
  std::string error;                       ///< what Coordinator::run threw
  std::vector<std::string> worker_errors;  ///< what each Worker::run threw
};

/// Coordinator on this thread, `workers` fabric::Workers each on its own
/// thread, connected by transport_pair — the in-process model of the
/// forked-worker topology. Worker i holds worker_specs[i] when given, `spec`
/// otherwise.
FabricRun run_fabric(const CampaignSpec& spec, std::size_t workers,
                     LeaseConfig lease = {}, std::ostream* log = nullptr,
                     std::vector<CampaignSpec> worker_specs = {}) {
  worker_specs.resize(workers, spec);
  FabricRun run;
  run.worker_errors.resize(workers);
  std::vector<std::unique_ptr<Transport>> coordinator_ends;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < workers; ++i) {
    auto ends = transport_pair();
    coordinator_ends.push_back(std::move(ends.first));
    threads.emplace_back([end = std::move(ends.second),
                          worker_spec = worker_specs[i],
                          &error = run.worker_errors[i]]() mutable {
      try {
        Worker worker(worker_spec);
        (void)worker.run(*end);
      } catch (const sim::ContractViolation& violation) {
        error = violation.what();
      }
    });
  }
  CoordinatorConfig config;
  config.lease = lease;
  config.log = log;
  Coordinator coordinator(spec, config);
  try {
    run.report = coordinator.run(std::move(coordinator_ends));
  } catch (const sim::ContractViolation& violation) {
    run.error = violation.what();
  }
  for (std::thread& thread : threads) thread.join();
  run.stats = coordinator.stats();
  return run;
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
  // A completion of a restored index is a duplicate: it neither merges nor
  // counts toward all_complete.
  EXPECT_FALSE(table.complete(1));
  for (const std::size_t index : {0u, 2u, 3u, 5u}) {
    EXPECT_FALSE(table.all_complete());
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

TEST(LeaseTable, TheCapNeverUndercutsTheBaseTimeout) {
  // hello_ok announces lease_timeout_ms and workers pace their sends by a
  // quarter of it, so no lease may expire sooner, whatever max_timeout_ms
  // says.
  LeaseConfig config = fast_lease();
  config.lease_timeout_ms = 1000;
  config.max_timeout_ms = 500;
  LeaseTable table(std::vector<bool>(2, true), config);
  const auto lease = table.grant(0);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->deadline_ms, 1000u);
  ASSERT_EQ(table.expire(1000).size(), 1u);
  const auto retried = table.grant(1000);
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->deadline_ms, 2000u);  // backoff capped at the base
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

  EXPECT_EQ(decode_hello_ok(encode_hello_ok(HelloOkBody{2500}))
                .lease_timeout_ms,
            2500u);
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
  append_frame(stream, FrameType::hello_ok,
               encode_hello_ok(HelloOkBody{10'000}));
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
            case FrameType::hello_ok:
              (void)decode_hello_ok(payload);
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
      run_fabric(fabric_spec, 3, lease);

  expect_reports_bit_identical(fabric.report, reference);
  EXPECT_EQ(fabric.stats.workers_joined, 3u);
  EXPECT_EQ(fabric.stats.workers_died, 0u);
  EXPECT_EQ(fabric.stats.shards_merged, reference.shard_count());
  const std::string reference_bytes = read_file(reference_ckpt.path);
  ASSERT_FALSE(reference_bytes.empty());
  EXPECT_EQ(read_file(fabric_ckpt.path), reference_bytes);
}

/// A worker's end that dies after its `shards`-th shard_done: the frames up
/// to that one reach the coordinator, then the transport closes, as SIGKILL
/// closes a worker's socket. Every later send fails and every read sees
/// end-of-stream.
class DyingTransport final : public Transport {
 public:
  DyingTransport(std::unique_ptr<Transport> inner, std::size_t shards)
      : inner_(std::move(inner)), shards_left_(shards) {}

  void send_all(const void* data, std::size_t size) override {
    sim::expects(inner_ != nullptr, "dying transport: already dead");
    std::size_t keep = 0;
    const std::string bytes(static_cast<const char*>(data), size);
    for (const auto& [type, payload] : decode_per_frame(bytes).frames) {
      if (shards_left_ == 0) break;
      keep += 5 + payload.size();  // length, type, payload
      if (type == FrameType::shard_done) --shards_left_;
    }
    inner_->send_all(data, keep);
    if (shards_left_ == 0) {
      inner_.reset();
      sim::expects(false, "dying transport: killed");
    }
  }
  std::size_t recv_some(void* data, std::size_t size) override {
    return inner_ == nullptr ? 0 : inner_->recv_some(data, size);
  }
  [[nodiscard]] int fd() const override { return -1; }

 private:
  std::unique_ptr<Transport> inner_;
  std::size_t shards_left_;
};

TEST(Fabric, KilledWorkerMidLeaseIsReLeasedBitIdentical) {
  const CampaignReport reference = Campaign(scaled_spec(200)).run(1);

  // Worker 0 serves the campaign alone and its transport dies right after
  // its fifth shard_done — mid-lease (batch 4 means it is 1 shard into its
  // second lease, with a third queued behind it), no lease_done: SIGKILL
  // as the coordinator sees it. Only then does a survivor join on the
  // coordinator's unix socket and absorb the re-leased ranges, so what the
  // dead worker held depends on no thread's scheduling.
  TempFile socket("killed.sock");
  UnixListener listener(socket.path);
  CoordinatorConfig config;
  config.lease.batch = 4;
  std::ostringstream log;
  config.log = &log;
  Coordinator coordinator(scaled_spec(200), config);
  auto [coordinator_end, worker_end] = transport_pair();
  std::vector<std::unique_ptr<Transport>> ends;
  ends.push_back(std::move(coordinator_end));
  CampaignReport report;
  std::thread serve([&] {
    report = coordinator.run(std::move(ends), &listener);
  });
  DyingTransport dying(std::move(worker_end), 5);
  EXPECT_THROW((void)Worker(scaled_spec(200)).run(dying),
               sim::ContractViolation);
  std::unique_ptr<Transport> survivor = unix_connect(socket.path);
  EXPECT_EQ(Worker(scaled_spec(200)).run(*survivor), 195u);
  serve.join();

  expect_reports_bit_identical(report, reference);
  EXPECT_EQ(coordinator.stats().workers_joined, 2u);
  EXPECT_EQ(coordinator.stats().workers_died, 1u);
  // The fifth shard_done reached the coordinator before the worker died,
  // so the other 3 shards of its second lease return, and so do the 4 of
  // the lease it asked for when the second one arrived. Every frame it
  // sent is served before its death is, even when the coordinator's grant
  // of that third lease reaches a closed socket.
  EXPECT_NE(log.str().find("worker 0 closed its connection; re-leasing 7 "
                           "shards"),
            std::string::npos)
      << log.str();
}

TEST(Fabric, RejectsMismatchedWorkersLoudlyWhileTheRestFinish) {
  const CampaignSpec spec = small_spec();
  CampaignSpec wrong_seed = spec;
  wrong_seed.seed = spec.seed + 1;
  CampaignSpec wrong_shape = spec;
  wrong_shape.grid->loss_rates.push_back(0.3);  // different grid, hash moves
  std::ostringstream log;
  const FabricRun run =
      run_fabric(spec, 3, {}, &log, {spec, wrong_seed, wrong_shape});

  // Both mismatches die loudly on their own side AND in the coordinator's
  // log; the healthy worker completes the campaign alone, bit-identical.
  EXPECT_EQ(run.worker_errors[0], "");
  EXPECT_NE(run.worker_errors[1].find("rejected handshake"), std::string::npos);
  EXPECT_NE(run.worker_errors[1].find("seed mismatch"), std::string::npos);
  EXPECT_NE(run.worker_errors[2].find("rejected handshake"), std::string::npos);
  EXPECT_NE(run.worker_errors[2].find("hash mismatch"), std::string::npos);
  EXPECT_NE(log.str().find("REJECTED worker 1"), std::string::npos);
  EXPECT_EQ(run.stats.workers_rejected, 2u);
  EXPECT_EQ(run.stats.workers_joined, 1u);
  expect_reports_bit_identical(run.report, Campaign(small_spec()).run(1));
}

TEST(Fabric, TornBytesBuryTheirWorker) {
  // The driver's own decoding: a worker that says hello and then sends a
  // frame with an unknown type is buried by the FrameReader's verdict.
  // Written ahead into the socket buffer, so no thread is needed; with the
  // only worker gone, run() fails loudly instead of idling.
  const CampaignSpec spec = small_spec();
  auto [coordinator_end, worker_end] = transport_pair();
  HelloBody hello;
  hello.spec_hash = spec.spec_hash();
  hello.seed = spec.seed;
  hello.shard_count = Campaign(spec).scenario_count();
  std::string bytes;
  append_frame(bytes, FrameType::hello, encode_hello(hello));
  bytes += std::string{1, 0, 0, 0, 99};
  worker_end->send_all(bytes.data(), bytes.size());
  std::vector<std::unique_ptr<Transport>> ends;
  ends.push_back(std::move(coordinator_end));
  std::ostringstream log;
  CoordinatorConfig config;
  config.log = &log;
  Coordinator coordinator(spec, config);
  EXPECT_THROW((void)coordinator.run(std::move(ends)), sim::ContractViolation);
  EXPECT_EQ(coordinator.stats().workers_died, 1u);
  EXPECT_NE(log.str().find("worker 0 sent a torn or invalid frame"),
            std::string::npos);
  EXPECT_NE(log.str().find("torn frame (unknown frame type)"),
            std::string::npos);
}

/// Caps this process's file size, with SIGXFSZ ignored so an oversized
/// write fails with EFBIG instead of killing the process; restores both
/// when it goes out of scope.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes)
      : handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  void (*handler_)(int);
  rlimit saved_{};
};

TEST(Fabric, CheckpointWriteFailureIsTheCoordinatorsOwnNotTheWorkers) {
  // A short checkpoint write fails the coordinator, not the healthy worker
  // whose record it was writing: run() throws the writer's message, and no
  // worker is buried (burying them would re-lease into the same failed
  // stream until the fleet is gone).
  TempFile checkpoint("short_write");
  CampaignSpec spec = small_spec();
  spec.checkpoint_path = checkpoint.path;
  FabricRun run;
  {
    const FileSizeLimit limit(64);
    run = run_fabric(spec, 2);
  }
  EXPECT_NE(run.error.find("short write"), std::string::npos) << run.error;
  EXPECT_EQ(run.stats.workers_died, 0u);
}

TEST(Fabric, CoordinatorResumesFromItsCheckpoint) {
  TempFile reference_ckpt("resume_reference");
  CampaignSpec full = small_spec();
  full.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(full).run(1);

  // Three ticks on one checkpoint: a single-process run stopped after 3
  // shards, a one-worker coordinator tick of 2 more, and a coordinator
  // resume of the last 3. Every append arrives in ascending order, so no
  // restore and no closing compaction rewrites the file — it keeps its
  // inode — and the merged report and the bytes match an uninterrupted run.
  TempFile checkpoint("resume");
  CampaignSpec tick = small_spec();
  tick.checkpoint_path = checkpoint.path;
  tick.max_shards = 3;
  (void)Campaign(tick).run(1);
  const auto inode = [&checkpoint] {
    struct stat info {};
    EXPECT_EQ(::stat(checkpoint.path.c_str(), &info), 0);
    return info.st_ino;
  };
  const ino_t first_inode = inode();
  LeaseConfig lease;
  lease.batch = 2;
  FabricRun run;
  for (const std::size_t cap : {std::size_t{2}, std::size_t{0}}) {
    tick.max_shards = cap;
    std::ostringstream log;
    run = run_fabric(tick, 1, lease, &log);
    EXPECT_NE(log.str().find("restored " + std::to_string(cap == 0 ? 5 : 3) +
                             " shards"),
              std::string::npos);
    EXPECT_EQ(run.stats.shards_merged, cap == 0 ? 3u : 2u);
    EXPECT_EQ(inode(), first_inode);
  }
  expect_reports_bit_identical(run.report, reference);
  EXPECT_EQ(read_file(checkpoint.path), read_file(reference_ckpt.path));

  // A two-worker resume of the same 3-shard start: its appends may arrive
  // out of order, so the restore and the closing compaction go through the
  // real driver, and the bytes still match.
  TempFile interleaved("resume_two_workers");
  CampaignSpec partial = small_spec();
  partial.checkpoint_path = interleaved.path;
  partial.max_shards = 3;
  (void)Campaign(partial).run(1);
  partial.max_shards = 0;
  std::ostringstream log;
  const FabricRun fabric = run_fabric(partial, 2, lease, &log);
  EXPECT_NE(log.str().find("restored 3 shards"), std::string::npos);
  EXPECT_EQ(fabric.stats.shards_merged, 5u);
  EXPECT_EQ(fabric.report.completed_shards(), fabric.report.shard_count());
  expect_reports_bit_identical(fabric.report, reference);
  EXPECT_EQ(read_file(interleaved.path), read_file(reference_ckpt.path));
}

TEST(Fabric, CoordinatorOnePassRestoreMatchesAnUninterruptedRun) {
  // The coordinator restores through the same ledger as Campaign::run: its
  // restored prefix folds during validation, the rest from the compacted
  // file. Every checkpoint shape must restore the same shards and end in
  // the merge and the compacted bytes of an uninterrupted run.
  TempFile reference_ckpt("one_pass_reference");
  CampaignSpec full = small_spec();
  full.checkpoint_path = reference_ckpt.path;
  const CampaignReport reference = Campaign(full).run(1);
  const std::string reference_bytes = read_file(reference_ckpt.path);

  LeaseConfig lease;
  lease.batch = 2;
  for (const testing::RestoreCase& c :
       testing::restore_cases(reference_bytes)) {
    SCOPED_TRACE(c.name);
    TempFile checkpoint("one_pass_" + c.name);
    std::ofstream(checkpoint.path, std::ios::binary) << c.bytes;
    CampaignSpec spec = small_spec();
    spec.checkpoint_path = checkpoint.path;
    if (c.malformed) {
      struct stat before {};
      ASSERT_EQ(::stat(checkpoint.path.c_str(), &before), 0);
      EXPECT_THROW((void)CoordinatorCore(Campaign(spec), CoordinatorConfig{}),
                   sim::ContractViolation);
      struct stat after {};
      ASSERT_EQ(::stat(checkpoint.path.c_str(), &after), 0);
      EXPECT_EQ(after.st_ino, before.st_ino);
      EXPECT_EQ(read_file(checkpoint.path), c.bytes);
      continue;
    }
    std::ostringstream log;
    const FabricRun run = run_fabric(spec, 2, lease, &log);
    EXPECT_NE(log.str().find("restored " + std::to_string(c.restored) +
                             " shards"),
              std::string::npos)
        << log.str();
    EXPECT_EQ(run.stats.shards_merged, reference.shard_count() - c.restored);
    expect_reports_bit_identical(run.report, reference);
    EXPECT_EQ(read_file(checkpoint.path), reference_bytes);
  }
}

// --------------------------------------------------------------- worker core
//
// fabric::WorkerCore driven step by step on a fake clock: no socket, thread
// or shard execution. A shard's record is a stand-in line, which the core
// forwards without reading.

/// The hello of a 100-shard campaign (the core checks grants against the
/// shard count only).
HelloBody hello_of_100() {
  HelloBody hello;
  hello.shard_count = 100;
  return hello;
}

/// Each send's frame types.
using Sends = std::vector<std::vector<FrameType>>;

/// Steps `core` until it reads or exits, answering each shard with a
/// stand-in line, the clock `ms_per_shard` later after each; its sends.
Sends sends_until_read(WorkerCore& core, std::uint64_t ms_per_shard = 0) {
  Sends sends;
  std::uint64_t now = 0;
  for (WorkerStep step = core.step(now); step.kind == WorkerStep::Kind::send ||
                                         step.kind == WorkerStep::Kind::run;
       step = core.step(now)) {
    if (step.kind == WorkerStep::Kind::run) {
      core.shard_done("line " + std::to_string(step.shard) + "\n");
      now += ms_per_shard;
      continue;
    }
    sends.emplace_back();
    for (const auto& frame : decode_per_frame(std::string(step.bytes)).frames) {
      sends.back().push_back(frame.first);
    }
    core.sent(now);
  }
  return sends;
}

/// A core past its handshake at `lease_timeout_ms`, its first
/// lease_request sent: it waits to read.
WorkerCore joined_core(std::uint64_t lease_timeout_ms) {
  WorkerCore core(hello_of_100());
  EXPECT_EQ(sends_until_read(core), Sends{{FrameType::hello}});
  core.receive(FrameView{FrameType::hello_ok,
                         encode_hello_ok(HelloOkBody{lease_timeout_ms})});
  EXPECT_EQ(sends_until_read(core), Sends{{FrameType::lease_request}});
  return core;
}

/// Feeds `core` a grant of shards [begin, end).
void grant(WorkerCore& core, std::uint64_t begin, std::uint64_t end) {
  core.receive(FrameView{FrameType::lease_grant,
                         encode_lease_grant(LeaseGrantBody{1, begin, end})});
}

TEST(WorkerCore, AsksForTheNextLeaseAtOnceAndHeartbeatsAtTheCoordinatorsCadence) {
  // The next lease_request leaves as the grant arrives, before the lease's
  // first shard_done, so the next grant queues behind the running lease.
  // A worker heartbeats before a shard only once a quarter of the lease
  // timeout has passed since its last send: with 1 ms (a cadence of 0)
  // before every shard, with 10 s never in a 4-shard lease of fast shards,
  // whose frames leave in one send with its lease_done. Shards of 1 s each
  // pass the 2.5 s cadence before the fourth one.
  using enum FrameType;
  const auto one_lease = [](std::uint64_t lease_timeout_ms,
                            std::uint64_t ms_per_shard) {
    WorkerCore core = joined_core(lease_timeout_ms);
    grant(core, 0, 4);
    return sends_until_read(core, ms_per_shard);
  };
  EXPECT_EQ(one_lease(1, 0), (Sends{{lease_request},
                                    {heartbeat},
                                    {shard_done, heartbeat},
                                    {shard_done, heartbeat},
                                    {shard_done, heartbeat},
                                    {shard_done, lease_done}}));
  EXPECT_EQ(one_lease(10'000, 0),
            (Sends{{lease_request},
                   {shard_done, shard_done, shard_done, shard_done,
                    lease_done}}));
  EXPECT_EQ(one_lease(10'000, 1'000),
            (Sends{{lease_request},
                   {shard_done, shard_done, shard_done, heartbeat},
                   {shard_done, lease_done}}));
}

TEST(WorkerCore, AFailedSendReadsPastQueuedRepliesToTheShutdown) {
  // The coordinator answers the worker's early lease_request with a second
  // grant, then completes the campaign (shutdown) and closes before the
  // first lease's frames leave. The failed send must read past that grant
  // (and an idle) to the shutdown and exit quietly. A stream that ends
  // instead, or any other frame, stays loud.
  using enum FrameType;
  const std::string second = encode_lease_grant(LeaseGrantBody{2, 4, 8});
  const auto failed = [] {
    WorkerCore core = joined_core(10'000);
    grant(core, 0, 4);
    EXPECT_EQ(core.step(0).kind, WorkerStep::Kind::send);
    core.sent(0);  // the next lease_request
    while (core.step(0).kind == WorkerStep::Kind::run) {
      core.shard_done("line\n");
    }
    core.send_failed();  // the lease's shard_dones and lease_done
    EXPECT_EQ(core.step(0).kind, WorkerStep::Kind::read);
    return core;
  };
  WorkerCore core = failed();
  core.receive(FrameView{lease_grant, second});
  core.receive(FrameView{idle, {}});
  EXPECT_EQ(core.step(0).kind, WorkerStep::Kind::read);
  core.receive(FrameView{shutdown, {}});
  EXPECT_EQ(core.step(0).kind, WorkerStep::Kind::exit);

  WorkerCore closed = failed();
  closed.receive(FrameView{lease_grant, second});
  EXPECT_THROW(closed.closed(), sim::ContractViolation);
  WorkerCore confused = failed();
  EXPECT_THROW(confused.receive(FrameView{hello_ok, encode_hello_ok({1})}),
               sim::ContractViolation);
}

TEST(WorkerCore, CoordinatorFramesFailItOnlyThroughItsContract) {
  // Every coordinator frame type with its valid payload, an empty one, a
  // truncated and an extended one, plus empty, inverted and out-of-range
  // grants, fed to the core in every state: before its hello leaves, in
  // its handshake, parked, mid-lease, after a failed send and after
  // shutdown. Only a ContractViolation may escape, also while the core is
  // stepped on afterwards (runs answered with a line, a read with
  // shutdown).
  using enum FrameType;
  std::vector<std::pair<FrameType, std::string>> frames;
  const std::vector<std::pair<FrameType, std::string>> valid = {
      {hello, encode_hello(hello_of_100())},
      {hello_ok, encode_hello_ok(HelloOkBody{1000})},
      {reject, "campaign seed mismatch"},
      {lease_request, ""},
      {lease_grant, encode_lease_grant(LeaseGrantBody{2, 4, 8})},
      {shard_done, encode_shard_done(ShardDoneBody{2, "line\n"})},
      {lease_done, encode_lease_id(2)},
      {heartbeat, encode_lease_id(2)},
      {idle, ""},
      {shutdown, ""}};
  for (const auto& [type, payload] : valid) {
    frames.emplace_back(type, payload);
    frames.emplace_back(type, "");
    if (!payload.empty()) {
      frames.emplace_back(type, payload.substr(0, payload.size() - 1));
    }
    frames.emplace_back(type, payload + 'x');
  }
  // encode_lease_grant checks nothing, so it also writes the bad ranges.
  const std::vector<LeaseGrantBody> bad_grants = {
      {3, 5, 5}, {3, 6, 5}, {3, 99, 101}, {3, 0, ~std::uint64_t{0}}};
  for (const LeaseGrantBody& bad : bad_grants) {
    frames.emplace_back(lease_grant, encode_lease_grant(bad));
  }

  std::vector<std::pair<std::string, WorkerCore>> states;
  states.emplace_back("hello unsent", WorkerCore(hello_of_100()));
  states.emplace_back("handshake", WorkerCore(hello_of_100()));
  (void)states.back().second.step(0);
  states.back().second.sent(0);
  states.emplace_back("parked", joined_core(1000));
  states.back().second.receive(FrameView{idle, {}});
  states.emplace_back("mid-lease", joined_core(1000));
  grant(states.back().second, 0, 4);
  (void)states.back().second.step(0);
  states.back().second.sent(0);
  ASSERT_EQ(states.back().second.step(0).kind, WorkerStep::Kind::run);
  states.back().second.shard_done("line\n");
  states.emplace_back("draining", joined_core(1000));
  grant(states.back().second, 0, 4);
  states.back().second.send_failed();
  states.emplace_back("finished", joined_core(1000));
  states.back().second.receive(FrameView{shutdown, {}});

  std::size_t refused = 0;
  std::size_t taken = 0;
  for (const auto& [name, start] : states) {
    for (const auto& [type, payload] : frames) {
      SCOPED_TRACE(name + ", frame type " + std::to_string(int(type)) +
                   ", payload of " + std::to_string(payload.size()));
      WorkerCore core = start;
      // idle and shutdown carry nothing, as a lease_request carries
      // nothing to the coordinator, which buries a worker whose does.
      const bool bare_frame_with_payload =
          (type == idle || type == shutdown) && !payload.empty();
      try {
        core.receive(FrameView{type, payload});
        ++taken;
        EXPECT_FALSE(bare_frame_with_payload) << "took the payload";
        (void)sends_until_read(core);
        if (core.step(0).kind == WorkerStep::Kind::read) {
          core.receive(FrameView{shutdown, {}});
        }
        EXPECT_EQ(core.step(0).kind, WorkerStep::Kind::exit);
      } catch (const sim::ContractViolation&) {
        ++refused;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "escaped the worker's contract: " << error.what();
      }
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(taken, 0u);

  // The named cases are refused, and a good grant runs.
  WorkerCore early = states[1].second;
  EXPECT_THROW(grant(early, 0, 4), sim::ContractViolation);
  for (const LeaseGrantBody& bad : bad_grants) {
    WorkerCore parked = states[2].second;
    const std::string payload = encode_lease_grant(bad);
    EXPECT_THROW(parked.receive(FrameView{lease_grant, payload}),
                 sim::ContractViolation);
  }
  WorkerCore parked = states[2].second;
  grant(parked, 96, 100);
  EXPECT_EQ(sends_until_read(parked).size(), 2u);  // lease_request, records
}

// ------------------------------------------------------------------- core
//
// CoordinatorCore driven frame by frame: no sockets, threads or clock.
// GoldenDigests.SeededFaultSchedules... explores it over seeded schedules.

/// A core over `spec`, and a scripted worker's vocabulary.
struct CoreHarness {
  CoreHarness(const CampaignSpec& spec, CoordinatorConfig config)
      : campaign(spec), core(campaign, config) {}

  void send(std::size_t conn, FrameType type, const std::string& payload = {},
            std::uint64_t now = 0) {
    core.receive(conn, FrameView{type, payload}, now);
  }
  std::string hello() const {
    HelloBody body;
    body.spec_hash = campaign.spec().spec_hash();
    body.seed = campaign.spec().seed;
    body.shard_count = campaign.scenario_count();
    return encode_hello(body);
  }
  std::size_t join() {
    const std::size_t conn = core.connect();
    send(conn, FrameType::hello, hello());
    return conn;
  }
  /// Asks for a lease on `conn`; the last grant the core queued for it.
  LeaseGrantBody lease(std::size_t conn) {
    send(conn, FrameType::lease_request);
    LeaseGrantBody grant;
    for (const Outbound& out : core.take_outbox()) {
      if (out.conn == conn && out.type == FrameType::lease_grant) {
        grant = decode_lease_grant(out.payload);
      }
    }
    return grant;
  }
  std::string line(std::size_t index) {
    return report::render_checkpoint_record(
        campaign.run_shard_record(index, context));
  }
  /// Runs `lease` on `conn`: every shard's line, then lease_done.
  void run_lease(std::size_t conn, const LeaseGrantBody& lease,
                 std::uint64_t now = 0) {
    for (std::size_t index = lease.begin; index < lease.end; ++index) {
      send(conn, FrameType::shard_done,
           encode_shard_done({lease.lease_id, line(index)}), now);
    }
    send(conn, FrameType::lease_done, encode_lease_id(lease.lease_id), now);
  }

  Campaign campaign;
  testbed::ShardContext context;
  CoordinatorCore core;
};

TEST(CoordinatorCore, StoresWorkerLinesVerbatimAndBuriesNonCanonicalOnes) {
  // The core appends each validated shard_done line as received instead of
  // rendering the parsed record again. A line without its '\n' must land as
  // exactly one checkpoint line; a complete line with a non-canonical token
  // must bury its worker, whose range then runs on a healthy one. Either
  // way the compacted checkpoint stays byte-identical to a single-thread
  // run.
  TempFile reference("verbatim_reference");
  {
    CampaignSpec spec = small_spec();
    spec.checkpoint_path = reference.path;
    (void)Campaign(spec).run(1);
    report::compact_checkpoint(reference.path);
  }
  TempFile checkpoint("verbatim");
  CampaignSpec spec = small_spec();
  spec.checkpoint_path = checkpoint.path;
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.log = &log;
  CoreHarness harness(spec, config);

  // Lease 1: the first line newline-less, the second as rendered.
  const std::size_t scripted = harness.join();
  const LeaseGrantBody first = harness.lease(scripted);
  ASSERT_EQ(first.end - first.begin, 2u);
  std::string expected_bytes;
  for (std::size_t index = first.begin; index < first.end; ++index) {
    std::string line = harness.line(index);
    expected_bytes += line;
    if (index == first.begin) line.pop_back();
    harness.send(scripted, FrameType::shard_done,
                 encode_shard_done({first.lease_id, line}));
  }
  harness.send(scripted, FrameType::lease_done,
               encode_lease_id(first.lease_id));
  EXPECT_EQ(read_file(checkpoint.path), expected_bytes);

  // Lease 2: a complete record whose scenario index has a leading zero. The
  // istream parser read it as the same record; stored verbatim, it would
  // have put non-canonical bytes in the checkpoint.
  const LeaseGrantBody second = harness.lease(scripted);
  std::string line = harness.line(second.begin);
  ASSERT_EQ(line.rfind("ckpt2 " + std::to_string(second.begin) + ' ', 0), 0u);
  line.insert(6, "0");
  harness.send(scripted, FrameType::shard_done,
               encode_shard_done({second.lease_id, line}));
  EXPECT_EQ(harness.core.stats().workers_died, 1u);
  EXPECT_NE(log.str().find("worker 0 sent a torn or invalid frame"),
            std::string::npos);
  EXPECT_NE(log.str().find("re-leasing 2 shards"), std::string::npos);

  const std::size_t healthy = harness.join();
  for (int leases = 0; leases < 4 && !harness.core.complete(); ++leases) {
    harness.run_lease(healthy, harness.lease(healthy));
  }
  ASSERT_TRUE(harness.core.done());
  expect_reports_bit_identical(harness.core.finish(),
                               Campaign(small_spec()).run(1));
  EXPECT_EQ(read_file(checkpoint.path), read_file(reference.path));
}

TEST(CoordinatorCore, AnswersHandshakesInFlightAtCompletionAndDropsSilentOne) {
  // The campaign completes while two more workers are connected but have
  // not said hello. The fleet gets shutdown at once; a late hello still
  // gets hello_ok then shutdown; a peer silent for one lease timeout past
  // completion is dropped. After completion only a hello gets through.
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 8;
  config.lease.lease_timeout_ms = 100;
  config.log = &log;
  CoreHarness harness(small_spec(), config);
  CoordinatorCore& core = harness.core;
  const std::size_t worker = harness.join();
  const std::size_t late = core.connect();
  const std::size_t silent = core.connect();
  const LeaseGrantBody lease = harness.lease(worker);
  ASSERT_EQ(lease.end - lease.begin, 8u);
  harness.run_lease(worker, lease, /*now=*/5);
  ASSERT_TRUE(core.complete());
  EXPECT_FALSE(core.done());
  EXPECT_EQ(core.next_deadline_ms(), std::optional<std::uint64_t>(105));
  std::vector<Outbound> out = core.take_outbox();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, FrameType::shutdown);
  EXPECT_EQ(out[1].kind, Outbound::Kind::close);
  EXPECT_EQ(out[1].conn, worker);

  harness.send(worker, FrameType::lease_request, {}, 50);  // closed
  harness.send(late, FrameType::lease_request, {}, 50);    // dropped
  harness.send(late, FrameType::hello, harness.hello(), 50);
  out = core.take_outbox();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].type, FrameType::hello_ok);
  EXPECT_EQ(out[1].type, FrameType::shutdown);
  EXPECT_EQ(out[2].kind, Outbound::Kind::close);
  EXPECT_EQ(out[2].conn, late);
  core.tick(104);
  EXPECT_FALSE(core.done());
  core.tick(105);
  EXPECT_TRUE(core.done());
  EXPECT_NE(log.str().find("worker " + std::to_string(silent) +
                           " never sent its hello; dropping it"),
            std::string::npos);
  EXPECT_EQ(core.stats().workers_joined, 2u);
  EXPECT_EQ(core.stats().workers_died, 0u);
  expect_reports_bit_identical(core.finish(), Campaign(small_spec()).run(1));
}

TEST(CoordinatorCore, ARangeRevokedAfterATickReachesTheNextParkedWorker) {
  // tick() pushes an expired range to the first parked worker, and the
  // driver's send to it fails after that tick: disconnect() must hand the
  // range to the next parked worker at once. Parked workers never ask
  // again, and no lease deadline is left to wake the driver for it.
  CoordinatorConfig config;
  config.lease.batch = 8;
  config.lease.lease_timeout_ms = 100;
  CoreHarness harness(small_spec(), config);
  CoordinatorCore& core = harness.core;
  const std::size_t stalled = harness.join();
  const LeaseGrantBody lease = harness.lease(stalled);
  ASSERT_EQ(lease.end - lease.begin, 8u);
  const std::size_t first = harness.join();
  const std::size_t second = harness.join();
  harness.send(first, FrameType::lease_request);
  harness.send(second, FrameType::lease_request);
  const auto grants = [&core] {
    std::vector<std::pair<std::size_t, LeaseGrantBody>> out;
    for (const Outbound& action : core.take_outbox()) {
      if (action.type == FrameType::lease_grant) {
        out.emplace_back(action.conn, decode_lease_grant(action.payload));
      }
    }
    return out;
  };
  EXPECT_TRUE(grants().empty());  // both idle: parked
  core.tick(100);
  auto pushed = grants();
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].first, first);
  core.disconnect(first, "could not be sent a frame");
  pushed = grants();
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].first, second);
  EXPECT_EQ(pushed[0].second.begin, lease.begin);
  EXPECT_EQ(pushed[0].second.end, lease.end);
  harness.run_lease(second, pushed[0].second, 150);
  ASSERT_TRUE(core.done());
  EXPECT_EQ(core.stats().workers_died, 1u);
  expect_reports_bit_identical(core.finish(), Campaign(small_spec()).run(1));
}

TEST(CoordinatorCore, ACompletionOfARestoredShardIsADuplicate) {
  // A worker may report a shard this run restored from the checkpoint
  // (its record validates: any worker can compute any shard). It must
  // count as a duplicate — neither folded a second time nor counted
  // toward completion.
  TempFile checkpoint("restored_duplicate");
  CampaignSpec spec = small_spec();
  spec.checkpoint_path = checkpoint.path;
  spec.max_shards = 3;
  (void)Campaign(spec).run(1);
  spec.max_shards = 0;
  CoordinatorConfig config;
  config.lease.batch = 8;
  CoreHarness harness(spec, config);
  const std::size_t worker = harness.join();
  harness.send(worker, FrameType::shard_done,
               encode_shard_done({1, harness.line(0)}));
  EXPECT_EQ(harness.core.stats().duplicate_shards, 1u);
  EXPECT_EQ(harness.core.stats().shards_merged, 0u);
  const LeaseGrantBody lease = harness.lease(worker);
  EXPECT_EQ(lease.begin, 3u);
  harness.run_lease(worker, lease);
  ASSERT_TRUE(harness.core.done());
  expect_reports_bit_identical(harness.core.finish(),
                               Campaign(small_spec()).run(1));
}

TEST(CoordinatorCore, AnyFrameKeepsEveryLeaseOfItsSenderAlive) {
  // A worker holds a running lease and the one queued behind it, and for
  // longer than the lease timeout sends only shard_done frames of the
  // first: each refreshes both leases, so neither expires. A second worker
  // holding two leases goes silent and loses both at their deadline.
  std::ostringstream log;
  CoordinatorConfig config;
  config.lease.batch = 2;
  config.lease.lease_timeout_ms = 100;
  config.log = &log;
  CoreHarness harness(small_spec(), config);
  CoordinatorCore& core = harness.core;
  const std::size_t busy = harness.join();
  const LeaseGrantBody running = harness.lease(busy);
  const LeaseGrantBody queued = harness.lease(busy);
  const std::size_t silent = harness.join();
  (void)harness.lease(silent);
  ASSERT_EQ(harness.lease(silent).end, 8u);

  harness.send(busy, FrameType::shard_done,
               encode_shard_done({running.lease_id, harness.line(0)}), 90);
  core.tick(100);  // the silent worker's deadline
  EXPECT_EQ(core.stats().leases_expired, 2u);
  EXPECT_NE(log.str().find("[4, 6) expired without heartbeat"),
            std::string::npos);
  EXPECT_NE(log.str().find("[6, 8) expired without heartbeat"),
            std::string::npos);
  harness.send(busy, FrameType::shard_done,
               encode_shard_done({running.lease_id, harness.line(1)}), 180);
  core.tick(279);  // 279 ms after both of the busy worker's grants
  EXPECT_EQ(core.stats().leases_expired, 2u);

  harness.send(busy, FrameType::lease_done, encode_lease_id(running.lease_id),
               279);
  harness.run_lease(busy, queued, 279);
  for (int leases = 0; leases < 2 && !core.complete(); ++leases) {
    harness.run_lease(busy, harness.lease(busy), 279);
  }
  ASSERT_TRUE(core.done());
  EXPECT_EQ(core.stats().leases_expired, 2u);
  expect_reports_bit_identical(core.finish(), Campaign(small_spec()).run(1));
}

}  // namespace
}  // namespace acute::fabric
