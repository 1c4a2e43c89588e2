#include "report/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "report/latest_wins.hpp"
#include "sim/contracts.hpp"
#include "stats/digest_io.hpp"

namespace acute::report {

using sim::expects;

void CheckpointWriter::append(const ShardCheckpoint& checkpoint) {
  // Render the whole record first so the locked append is one write: a
  // kill can tear at most the record's own line, never interleave shards.
  writer_.append_block(render_checkpoint_record(checkpoint));
}

std::string render_checkpoint_record(const ShardCheckpoint& checkpoint) {
  std::ostringstream line;
  const ShardSummary& s = checkpoint.summary;
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(checkpoint.spec_hash));
  line << "ckpt2 " << s.info.scenario_index << ' ' << s.info.shard_seed << ' '
       << hash_hex << ' ' << s.info.phone_count << ' ' << s.probes_sent << ' '
       << s.probes_lost << ' ' << s.frames_on_air << ' ' << s.events_fired
       << ' ';
  {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      stats::double_bits(s.sim_seconds)));
    line << hex;
  }
  line << ' ' << checkpoint.digests.size();
  for (const WorkloadDigest& digest : checkpoint.digests) {
    line << ' ' << tools::grid_name(digest.tool) << ' ' << digest.probes
         << ' ' << digest.lost << ' ';
    stats::write_digest(line, digest.reported_rtt_ms);
    line << ' ';
    stats::write_digest(line, digest.du_ms);
    line << ' ';
    stats::write_digest(line, digest.dk_ms);
    line << ' ';
    stats::write_digest(line, digest.dv_ms);
    line << ' ';
    stats::write_digest(line, digest.dn_ms);
    line << ' ' << digest.passive_sniffer_samples << ' '
         << digest.passive_app_samples << ' ';
    stats::write_digest(line, digest.passive_sniffer_rtt_ms);
    line << ' ';
    stats::write_digest(line, digest.passive_app_rtt_ms);
  }
  line << " end\n";
  return line.str();
}

namespace {

/// True when the line's last whitespace-separated token is the "end"
/// sentinel — the writer finished this record, so it is complete, whatever
/// else is wrong with it.
bool has_end_sentinel(const std::string& line) {
  const auto last = line.find_last_not_of(" \t\r\n");
  if (last == std::string::npos || line[last] != 'd') return false;
  if (last < 2 || line[last - 1] != 'n' || line[last - 2] != 'e') return false;
  return last == 2 || line[last - 3] == ' ' || line[last - 3] == '\t';
}

/// Parses one complete-record body; returns false on any malformation.
bool parse_record_body(const std::string& line, ShardCheckpoint& out) {
  std::istringstream in(line);
  std::string magic;
  in >> magic;
  if (magic != "ckpt2") return false;
  try {
    ShardSummary& s = out.summary;
    std::string hash_hex;
    std::string sim_bits;
    std::size_t digest_count = 0;
    in >> s.info.scenario_index >> s.info.shard_seed >> hash_hex >>
        s.info.phone_count >> s.probes_sent >> s.probes_lost >>
        s.frames_on_air >> s.events_fired >> sim_bits >> digest_count;
    std::uint64_t seconds_bits = 0;
    if (!in || !stats::parse_hex64(hash_hex, out.spec_hash) ||
        !stats::parse_hex64(sim_bits, seconds_bits)) {
      return false;
    }
    s.sim_seconds = stats::double_from_bits(seconds_bits);
    out.digests.clear();
    // Each per-workload group holds seven digests.
    out.digests.reserve(std::min(
        digest_count, stats::items_left(in, 7 * stats::kMinDigestBytes)));
    for (std::size_t i = 0; i < digest_count; ++i) {
      WorkloadDigest digest;
      std::string tool;
      in >> tool >> digest.probes >> digest.lost;
      if (!in) return false;
      const auto kind = tools::parse_tool_kind(tool);
      if (!kind.has_value()) return false;
      digest.tool = *kind;
      digest.reported_rtt_ms = stats::read_digest(in);
      digest.du_ms = stats::read_digest(in);
      digest.dk_ms = stats::read_digest(in);
      digest.dv_ms = stats::read_digest(in);
      digest.dn_ms = stats::read_digest(in);
      in >> digest.passive_sniffer_samples >> digest.passive_app_samples;
      if (!in) return false;
      digest.passive_sniffer_rtt_ms = stats::read_digest(in);
      digest.passive_app_rtt_ms = stats::read_digest(in);
      out.digests.push_back(std::move(digest));
    }
    std::string sentinel;
    in >> sentinel;
    return sentinel == "end";
  } catch (const sim::ContractViolation&) {
    return false;  // torn digest blob: treat the record as truncated
  }
}

/// fsyncs `path` through a throwaway read-only fd (fsync flushes the file's
/// dirty pages regardless of which descriptor requests it).
void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  expects(fd >= 0, "compact_checkpoint: cannot reopen temp file for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  expects(rc == 0, "compact_checkpoint: fsync of temp file failed");
}

/// Renames `temp` over `path` durably: the temp file's bytes are fsync'd
/// first — so a power cut cannot promote a file whose data never reached
/// the platter — and the containing directory is fsync'd after (best
/// effort: some filesystems refuse directory fds) so the rename itself
/// survives the cut.
void durable_replace(const std::string& temp, const std::string& path) {
  fsync_path(temp);
  // rename() replaces atomically on POSIX: readers see the old complete
  // file or the new complete file, never a prefix.
  expects(std::rename(temp.c_str(), path.c_str()) == 0,
          "compact_checkpoint: rename over checkpoint failed");
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

}  // namespace

bool parse_checkpoint_record(const std::string& line, ShardCheckpoint& out) {
  if (parse_record_body(line, out)) return true;
  expects(!has_end_sentinel(line),
          "checkpoint: complete record of an unknown kind or version "
          "(expected ckpt2) — refusing to silently skip it; delete or "
          "migrate the checkpoint file");
  return false;
}

void compact_checkpoint(const std::string& path,
                        const std::vector<ShardCheckpoint>& records) {
  // LatestWinsMerge is resume's restore rule, so the compacted file reads
  // like an uninterrupted ascending front-to-back sweep.
  LatestWinsMerge<const ShardCheckpoint*> latest;
  for (const ShardCheckpoint& record : records) {
    latest.claim(record.summary.info.scenario_index, &record);
  }
  const std::string temp = path + ".compact";
  {
    std::ofstream out(temp, std::ios::trunc);
    expects(out.is_open(), "compact_checkpoint: cannot open temp file");
    latest.for_each([&](std::size_t, const ShardCheckpoint* record) {
      out << render_checkpoint_record(*record);
    });
    out.flush();
    expects(out.good(), "compact_checkpoint: short write to temp file");
  }
  durable_replace(temp, path);
}

void compact_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return;  // nothing to compact
  // Pass 1: byte offset of each scenario's winning (last complete) record —
  // O(shards) offsets, not digests.
  LatestWinsMerge<std::streamoff> latest;
  {
    ShardCheckpoint record;
    std::string line;
    for (std::streamoff pos = in.tellg(); std::getline(in, line);
         pos = in.tellg()) {
      if (parse_checkpoint_record(line, record)) {
        latest.claim(record.summary.info.scenario_index, pos);
      }
    }
    in.clear();  // getline hit EOF; clear so the pass-2 seeks work
  }
  const std::string temp = path + ".compact";
  {
    std::ofstream out(temp, std::ios::trunc);
    expects(out.is_open(), "compact_checkpoint: cannot open temp file");
    ShardCheckpoint record;
    std::string line;
    latest.for_each([&](std::size_t index, std::streamoff pos) {
      in.seekg(pos);
      expects(std::getline(in, line).good() || in.eof(),
              "compact_checkpoint: checkpoint shrank during compaction");
      expects(parse_checkpoint_record(line, record),
              "compact_checkpoint: record vanished during compaction");
      expects(record.summary.info.scenario_index == index,
              "compact_checkpoint: record moved during compaction");
      out << render_checkpoint_record(record);
      in.clear();
    });
    out.flush();
    expects(out.good(), "compact_checkpoint: short write to temp file");
  }
  durable_replace(temp, path);
}

CheckpointReader::CheckpointReader(const std::string& path) : in_(path) {}

bool CheckpointReader::next(ShardCheckpoint& out) {
  while (std::getline(in_, line_)) {
    if (parse_checkpoint_record(line_, out)) return true;
  }
  return false;
}

void for_each_checkpoint(const std::string& path,
                         const std::function<void(ShardCheckpoint&&)>& fn) {
  CheckpointReader reader(path);
  ShardCheckpoint record;
  while (reader.next(record)) fn(std::move(record));
}

std::vector<ShardCheckpoint> load_checkpoint(const std::string& path) {
  std::vector<ShardCheckpoint> records;
  for_each_checkpoint(path, [&](ShardCheckpoint&& record) {
    records.push_back(std::move(record));
  });
  return records;
}

CheckpointSink::CheckpointSink(std::shared_ptr<CheckpointWriter> writer,
                               std::uint64_t spec_hash)
    : writer_(std::move(writer)), spec_hash_(spec_hash) {
  expects(writer_ != nullptr, "CheckpointSink requires a writer");
}

void CheckpointSink::probe_completed(const ProbeEvent& event) {
  // Deliberately its own fold (not a view of DigestSink's): the sink stays
  // self-contained for any chain composition, and fold_probe() guarantees
  // the persisted bits equal the report's. The duplicate work is ~100
  // digest adds per shard, noise next to the shard's simulation.
  fold_probe(fold_, event);
}

void CheckpointSink::shard_finished(const ShardSummary& summary) {
  ShardCheckpoint checkpoint;
  checkpoint.summary = summary;
  checkpoint.spec_hash = spec_hash_;
  checkpoint.digests = fold_.take();
  writer_->append(checkpoint);
}

}  // namespace acute::report
