// Tracing from outside the library: the span store, the per-shard span
// sink, the fabric wire tap and the single-threaded layer replay. Nothing
// here reaches inside src/; every span wraps a call into a public function.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "fabric/wire.hpp"
#include "net/packet.hpp"
#include "report/checkpoint.hpp"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

std::int64_t Trace::begin(const char* name, std::int64_t parent,
                          std::int64_t shard) {
  return add(Span{name, now_s(), -1.0, parent, shard});
}

void Trace::end(std::int64_t id) {
  const double at = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = at;
}

std::int64_t Trace::add(const Span& span) {
  UncountedScope uncounted;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

// ------------------------------------------------------------- shard sink

namespace {

class ShardSpanSink final : public report::ResultSink {
 public:
  ShardSpanSink(Trace& trace, std::int64_t parent, std::size_t shard)
      : trace_(trace), parent_(parent), shard_(shard), start_(now_s()) {}

  void probe_completed(const report::ProbeEvent&) override {}
  void shard_finished(const report::ShardSummary&) override {
    trace_.add(Span{"shard", start_, now_s(), parent_,
                    static_cast<std::int64_t>(shard_)});
  }

 private:
  Trace& trace_;
  std::int64_t parent_;
  std::size_t shard_;
  double start_;
};

}  // namespace

report::SinkFactory shard_span_sinks(Trace& trace,
                                     const std::int64_t& parent) {
  return [&trace, &parent](const report::ShardInfo& info) {
    UncountedScope uncounted;
    std::vector<std::unique_ptr<report::ResultSink>> sinks;
    sinks.push_back(
        std::make_unique<ShardSpanSink>(trace, parent, info.scenario_index));
    return sinks;
  };
}

// --------------------------------------------------------------- wire tap

WireTap::WireTap(std::unique_ptr<fabric::Transport> inner,
                 WireCounters& counters)
    : inner_(std::move(inner)), counters_(counters) {}

void WireTap::send_all(const void* data, std::size_t size) {
  // write_frame sends each frame in one call: u32 length, then the type.
  const bool grant =
      size > 4 && static_cast<const unsigned char*>(data)[4] ==
                      static_cast<unsigned char>(fabric::FrameType::lease_grant);
  const double start = now_s();
  if (grant && !counters_.first_grant.has_value()) {
    counters_.first_grant = start;
    counters_.first_grant_cpu_s = thread_cpu_s();
  }
  inner_->send_all(data, size);
  if (counters_.timed) {
    counters_.send_s += now_s() - start;
    counters_.frames_sent += 1;
    counters_.bytes_sent += size;
  }
}

std::size_t WireTap::recv_some(void* data, std::size_t size) {
  if (!counters_.timed) return inner_->recv_some(data, size);
  const double start = now_s();
  const std::size_t got = inner_->recv_some(data, size);
  const double at = now_s();
  counters_.recv_s += at - start;
  counters_.bytes_received += got;
  received(static_cast<const unsigned char*>(data), got, at);
  return got;
}

void WireTap::received(const unsigned char* bytes, std::size_t size,
                       double at) {
  constexpr auto kHeartbeat =
      static_cast<unsigned char>(fabric::FrameType::heartbeat);
  constexpr auto kShardDone =
      static_cast<unsigned char>(fabric::FrameType::shard_done);
  // A shard_done body: type, u64 lease id, then "ckpt2 <index> ...".
  constexpr std::size_t kIndexOffset = 1 + 8 + 6;
  std::size_t i = 0;
  while (i < size) {
    if (body_left_ == 0) {
      header_[header_have_++] = bytes[i++];
      if (header_have_ == 4) {
        header_have_ = 0;
        body_left_ = std::size_t{header_[0]} | std::size_t{header_[1]} << 8 |
                     std::size_t{header_[2]} << 16 |
                     std::size_t{header_[3]} << 24;
        body_seen_ = 0;
      }
      continue;
    }
    const std::size_t take = std::min(body_left_, size - i);
    if (body_seen_ < sizeof prefix_) {
      std::memcpy(prefix_ + body_seen_, bytes + i,
                  std::min(take, sizeof prefix_ - body_seen_));
    }
    body_seen_ += take;
    body_left_ -= take;
    i += take;
    if (body_left_ > 0) continue;
    counters_.frames_received += 1;
    if (prefix_[0] == kHeartbeat) {
      heartbeat_at_ = at;
    } else if (prefix_[0] == kShardDone && heartbeat_at_.has_value()) {
      if (counters_.trace != nullptr) {
        std::int64_t shard = 0;
        for (std::size_t k = kIndexOffset;
             k < std::min(body_seen_, sizeof prefix_) && prefix_[k] >= '0' &&
             prefix_[k] <= '9';
             ++k) {
          shard = shard * 10 + (prefix_[k] - '0');
        }
        counters_.trace->add(
            Span{"shard", *heartbeat_at_, at, counters_.parent_span, shard});
      }
      heartbeat_at_.reset();
    }
  }
}

// ----------------------------------------------------------------- replay

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

/// Times one pipeline step as a child span of `parent`; returns seconds.
template <typename Fn>
double step(Trace& trace, const char* name, std::int64_t parent,
            std::int64_t shard, Fn&& fn) {
  const double start = now_s();
  fn();
  const double end = now_s();
  trace.add(Span{name, start, end, parent, shard});
  return end - start;
}

}  // namespace

ReplayResult replay(const Setup& setup, Trace& trace) {
  ReplayResult result;
  const testbed::CampaignSpec& spec = setup.spec;
  const testbed::Campaign campaign(spec);
  const std::int64_t root = trace.begin("replay", -1);

  result.spec_hash_s = step(trace, "spec_hash", root, -1,
                            [&] { (void)spec.spec_hash(); });

  const std::string checkpoint = setup.work_dir + "/replay.ckpt";
  std::remove(checkpoint.c_str());
  auto writer = std::make_unique<report::CheckpointWriter>(checkpoint);
  report::WorkloadFold fold;
  testbed::ShardContext context;
  testbed::ScenarioSpec scenario;
  // The fabric hop of a shard_done frame: the worker end sends, the tapped
  // coordinator end receives. A record is tens of KiB at most, well inside
  // the socket buffer, so one thread can send and then receive.
  auto [coordinator_end, worker_end] = fabric::transport_pair();
  WireCounters received;
  received.timed = true;
  WireTap coordinator_tap(std::move(coordinator_end), received);

  std::vector<double> materialize, hash, render, send, recv, parse, append,
      fold_s;
  std::uint64_t probes = 0;
  double record_bytes = 0;
  acute::net::Packet::reset_op_counters();
  const std::size_t sample = std::min(setup.replay_sample, setup.shards);
  for (std::size_t k = 0; k < sample; ++k) {
    const std::size_t index = k * setup.shards / sample;
    const auto shard = static_cast<std::int64_t>(index);
    const std::int64_t span = trace.begin("replay.shard", root, shard);
    materialize.push_back(step(trace, "at_into", span, shard, [&] {
      if (spec.grid.has_value()) {
        spec.grid->at_into(index, scenario);
      } else {
        scenario = spec.scenarios[index];
      }
    }));
    std::uint64_t shard_hash = 0;
    hash.push_back(step(trace, "shard_hash", span, shard,
                        [&] { shard_hash = spec.shard_hash(scenario); }));
    report::ShardCheckpoint record;
    step(trace, "run_shard_record", span, shard,
         [&] { record = campaign.run_shard_record(index, context); });
    if (record.spec_hash != shard_hash) {
      throw std::runtime_error("replay: run_shard_record hash mismatch");
    }
    std::string line;
    render.push_back(step(trace, "render", span, shard, [&] {
      line = report::render_checkpoint_record(record);
    }));
    record_bytes += double(line.size());
    fabric::ShardDoneBody done{1, std::move(line)};
    send.push_back(step(trace, "wire.send", span, shard, [&] {
      fabric::write_frame(*worker_end, fabric::FrameType::shard_done,
                          fabric::encode_shard_done(done));
    }));
    fabric::Frame frame;
    recv.push_back(step(trace, "wire.recv", span, shard, [&] {
      if (!fabric::read_frame(coordinator_tap, frame)) {
        throw std::runtime_error("replay: wire closed");
      }
      done = fabric::decode_shard_done(frame.payload);
    }));
    report::ShardCheckpoint parsed;
    parse.push_back(step(trace, "parse", span, shard, [&] {
      if (!report::parse_checkpoint_record(done.record_line, parsed)) {
        throw std::runtime_error("replay: record did not parse");
      }
    }));
    append.push_back(
        step(trace, "append", span, shard, [&] { writer->append(parsed); }));
    fold_s.push_back(step(trace, "fold", span, shard, [&] {
      fold.fold_shard(std::move(parsed.digests));
    }));
    probes += record.summary.probes_sent;
    trace.end(span);
  }
  const std::uint64_t copies = acute::net::Packet::op_counters().copies;
  writer.reset();
  result.compact_s = step(trace, "compact", root, -1, [&] {
    report::compact_checkpoint(checkpoint);
  });

  result.materialize_us = 1e6 * median(materialize);
  result.shard_hash_us = 1e6 * median(hash);
  result.render_us = 1e6 * median(render);
  result.send_us = 1e6 * median(send);
  result.recv_us = 1e6 * median(recv);
  result.parse_us = 1e6 * median(parse);
  result.append_us = 1e6 * median(append);
  result.fold_us = 1e6 * median(fold_s);
  result.record_bytes = sample > 0 ? record_bytes / double(sample) : 0;
  result.wire_bytes =
      sample > 0 ? double(received.bytes_received) / double(sample) : 0;
  result.frames =
      sample > 0 ? double(received.frames_received) / double(sample) : 0;
  result.copies_per_probe = probes > 0 ? double(copies) / double(probes) : 0;

  // The one-worker resume: a checkpointed Campaign::run over the first
  // `sample` shards, then a second run that restores them (and runs one).
  testbed::CampaignSpec ticked = spec;
  ticked.checkpoint_path = setup.work_dir + "/replay_campaign.ckpt";
  std::remove(ticked.checkpoint_path.c_str());
  ticked.max_shards = std::max<std::size_t>(sample, 1);
  testbed::CampaignReport first;
  step(trace, "replay.campaign.run", root, -1,
       [&] { first = testbed::Campaign(ticked).run(1); });
  ticked.max_shards = 1;
  testbed::CampaignReport resumed;
  step(trace, "replay.campaign.resume", root, -1,
       [&] { resumed = testbed::Campaign(ticked).run(1); });
  const double per_kshard = 1e3 / double(first.completed_shards());
  result.stage_per_kshard.build = first.stage.build * per_kshard;
  result.stage_per_kshard.simulate = first.stage.simulate * per_kshard;
  result.stage_per_kshard.sink = first.stage.sink * per_kshard;
  result.restore_s = resumed.stage.restore;
  result.events_per_simulate_s =
      double(first.total_events()) / first.stage.simulate;
  std::remove(checkpoint.c_str());
  std::remove(ticked.checkpoint_path.c_str());
  trace.end(root);
  return result;
}

}  // namespace perfbench
