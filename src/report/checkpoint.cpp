#include "report/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>

#include "sim/contracts.hpp"
#include "stats/digest_io.hpp"

namespace acute::report {

using sim::expects;

namespace {

/// Initial capacity of a rendered record: a one-workload ping shard takes
/// ~800 bytes, so most records render without growing the string.
constexpr std::size_t kRecordReserveBytes = 1024;

}  // namespace

void CheckpointWriter::append(const ShardCheckpoint& checkpoint) {
  // Render the whole record first so the locked append is one write: a
  // kill can tear at most the record's own line, never interleave shards.
  append_line(render_checkpoint_record(checkpoint),
              checkpoint.summary.info.scenario_index);
}

void CheckpointWriter::append_line(std::string_view line,
                                   std::size_t scenario_index) {
  writer_.append_line(line, [this, scenario_index](bool ok) {
    canonical_ = canonical_ && ok &&
                 (!last_index_.has_value() || scenario_index > *last_index_);
    last_index_ = scenario_index;
  });
}

std::string render_checkpoint_record(const ShardCheckpoint& checkpoint) {
  std::string line;
  line.reserve(kRecordReserveBytes);
  const auto decimal = [&line](std::uint64_t value) {
    line += ' ';
    stats::append_decimal(line, value);
  };
  const auto hex = [&line](std::uint64_t bits) {
    line += ' ';
    stats::append_hex64(line, bits);
  };
  const auto digest = [&line](const stats::MergingDigest& value) {
    line += ' ';
    stats::append_digest(line, value);
  };
  const ShardSummary& s = checkpoint.summary;
  line += "ckpt2";
  decimal(s.info.scenario_index);
  decimal(s.info.shard_seed);
  hex(checkpoint.spec_hash);
  decimal(s.info.phone_count);
  decimal(s.probes_sent);
  decimal(s.probes_lost);
  decimal(s.frames_on_air);
  decimal(s.events_fired);
  hex(stats::double_bits(s.sim_seconds));
  decimal(checkpoint.digests.size());
  for (const WorkloadDigest& workload : checkpoint.digests) {
    line += ' ';
    line += tools::grid_name(workload.tool);
    decimal(workload.probes);
    decimal(workload.lost);
    digest(workload.reported_rtt_ms);
    digest(workload.du_ms);
    digest(workload.dk_ms);
    digest(workload.dv_ms);
    digest(workload.dn_ms);
    decimal(workload.passive_sniffer_samples);
    decimal(workload.passive_app_samples);
    digest(workload.passive_sniffer_rtt_ms);
    digest(workload.passive_app_rtt_ms);
  }
  line += " end\n";
  return line;
}

namespace {

/// True when the line's last whitespace-separated token is the "end"
/// sentinel — the writer finished this record, so it is complete, whatever
/// else is wrong with it.
bool has_end_sentinel(std::string_view line) {
  const auto last = line.find_last_not_of(" \t\r\n");
  if (last == std::string_view::npos || line[last] != 'd') return false;
  if (last < 2 || line[last - 1] != 'n' || line[last - 2] != 'e') return false;
  return last == 2 || line[last - 3] == ' ' || line[last - 3] == '\t';
}

/// The next token is a tool's canonical grid name (parse_tool_kind also
/// takes display aliases, which would not re-render to the same bytes).
bool read_tool(stats::TokenCursor& in, tools::ToolKind& out) {
  std::string_view name;
  if (!in.token(name)) return false;
  const auto kind = tools::parse_tool_kind(name);
  if (!kind.has_value() || name != tools::grid_name(*kind)) return false;
  out = *kind;
  return true;
}

/// Parses one canonical complete-record body; false on any malformation.
bool parse_record_body(std::string_view line, ShardCheckpoint& out) {
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  stats::TokenCursor in(line);
  if (!in.literal("ckpt2")) return false;
  try {
    ShardSummary& s = out.summary;
    std::uint64_t seconds_bits = 0;
    std::size_t digest_count = 0;
    if (!in.decimal(s.info.scenario_index) || !in.decimal(s.info.shard_seed) ||
        !in.hex64(out.spec_hash) || !in.decimal(s.info.phone_count) ||
        !in.decimal(s.probes_sent) || !in.decimal(s.probes_lost) ||
        !in.decimal(s.frames_on_air) || !in.decimal(s.events_fired) ||
        !in.hex64(seconds_bits) || !in.decimal(digest_count)) {
      return false;
    }
    s.sim_seconds = stats::double_from_bits(seconds_bits);
    out.digests.clear();
    // Each per-workload group holds seven digests.
    out.digests.reserve(std::min(
        digest_count, in.bytes_left() / (7 * stats::kMinDigestBytes)));
    for (std::size_t i = 0; i < digest_count; ++i) {
      WorkloadDigest digest;
      if (!read_tool(in, digest.tool) || !in.decimal(digest.probes) ||
          !in.decimal(digest.lost)) {
        return false;
      }
      digest.reported_rtt_ms = stats::read_digest(in);
      digest.du_ms = stats::read_digest(in);
      digest.dk_ms = stats::read_digest(in);
      digest.dv_ms = stats::read_digest(in);
      digest.dn_ms = stats::read_digest(in);
      if (!in.decimal(digest.passive_sniffer_samples) ||
          !in.decimal(digest.passive_app_samples)) {
        return false;
      }
      digest.passive_sniffer_rtt_ms = stats::read_digest(in);
      digest.passive_app_rtt_ms = stats::read_digest(in);
      out.digests.push_back(std::move(digest));
    }
    return in.literal("end") && in.done();
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

bool parse_checkpoint_record(std::string_view line, ShardCheckpoint& out) {
  if (parse_record_body(line, out)) return true;
  expects(!has_end_sentinel(line),
          "checkpoint: complete record of an unknown kind or version "
          "(expected canonical ckpt2) — refusing to silently skip it; "
          "delete or migrate the checkpoint file");
  return false;
}

CompactionResult compact_checkpoint(const std::string& path,
                                    const CheckpointVisitor& visit) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return {};  // nothing to compact
  // Pass 1: the byte offset of every complete record, in file order —
  // O(shards) (index, offset) pairs, not digests — and whether the file is
  // canonical already. Offsets are summed line lengths, not tellg() (a seek
  // per line). The visitor may consume the record, so its index is read
  // first.
  std::vector<std::pair<std::size_t, std::streamoff>> offsets;
  ShardCheckpoint record;
  std::string line;
  std::optional<std::size_t> last_index;
  bool canonical = true;
  {
    std::streamoff pos = 0;
    while (std::getline(in, line)) {
      // A line read up to EOF lacks its '\n'.
      canonical = canonical && !in.eof();
      if (parse_checkpoint_record(line, record)) {
        const std::size_t index = record.summary.info.scenario_index;
        if (visit) visit(record);
        canonical =
            canonical && (!last_index.has_value() || index > *last_index);
        last_index = index;
        offsets.emplace_back(index, pos);
      } else {
        canonical = false;  // a torn fragment or a blank line
      }
      pos += static_cast<std::streamoff>(line.size()) + (in.eof() ? 0 : 1);
    }
    in.clear();  // getline hit EOF; clear so pass 2 can seek
  }
  if (canonical) return {offsets.size(), last_index};
  // This is the one duplicate-record rule of the results pipeline: among
  // records claiming the same scenario index, the LAST complete one wins (a
  // checkpoint appended across kill/resume ticks, or a shard the fabric
  // coordinator received from both a stalled lease holder and its
  // re-lease). Every claimant carries bit-identical bytes, a shard being a
  // pure function of (spec, seed, index), so the tiebreak is arbitrary but
  // fixed, and the campaign ledger's restore inherits it by reading this
  // function's output. Only a non-canonical file pays for ordering: sorted
  // (index, offset) pairs keep each index's records in file order, so the
  // last of each equal-index run is the winner, and the winners come out
  // in ascending order, in place.
  std::sort(offsets.begin(), offsets.end());
  auto winner = offsets.begin();
  for (auto it = offsets.begin(); it != offsets.end(); ++it) {
    const auto next = std::next(it);
    if (next == offsets.end() || next->first != it->first) *winner++ = *it;
  }
  offsets.erase(winner, offsets.end());
  CompactionResult result;
  const std::string temp = path + ".compact";
  {
    std::ofstream out(temp, std::ios::trunc | std::ios::binary);
    expects(out.is_open(), "compact_checkpoint: cannot open temp file");
    // Pass 2 reads forward and seeks only past lines that lost (duplicates,
    // torn fragments, out-of-order indices). Each winner is re-validated,
    // and since a parsed line is canonical, its bytes are what rendering
    // the record again would produce: they are copied, not re-rendered.
    std::streamoff next = -1;  // the offset `in` is positioned at, if known
    for (const auto& [index, pos] : offsets) {
      if (pos != next) {
        in.clear();
        in.seekg(pos);
      }
      expects(std::getline(in, line).good() || in.eof(),
              "compact_checkpoint: checkpoint shrank during compaction");
      expects(parse_checkpoint_record(line, record),
              "compact_checkpoint: record vanished during compaction");
      expects(record.summary.info.scenario_index == index,
              "compact_checkpoint: record moved during compaction");
      out.write(line.data(), static_cast<std::streamsize>(line.size()));
      out.put('\n');
      ++result.records;
      result.last_index = index;
      next = in.eof() ? -1
                      : pos + static_cast<std::streamoff>(line.size()) + 1;
    }
    out.flush();
    expects(out.good(), "compact_checkpoint: short write to temp file");
  }
  durable_replace(temp, path);
  return result;
}

CheckpointReader::CheckpointReader(const std::string& path,
                                   std::size_t skip_lines)
    : in_(path) {
  for (std::size_t i = 0; i < skip_lines && in_; ++i) {
    in_.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
}

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

}  // namespace acute::report
