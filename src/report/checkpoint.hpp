// Campaign checkpoint/resume: persist completed shards, skip them on rerun.
//
// A killed 10^5-scenario sweep must restart from the last completed shard,
// and the resumed campaign's merged digests must be **bit-identical** to an
// uninterrupted run for any worker count. Three pieces make that hold:
//
//   * A shard's outcome is one ShardCheckpoint — the counters, the spec
//     hash and the DigestSink's per-workload digests — and the campaign
//     appends exactly that record when the shard completes; the fabric
//     wire carries the same record as its rendered line.
//   * Records serialize doubles as IEEE-754 bit patterns (stats/digest_io),
//     so a restored digest merges exactly like the one that was dropped.
//   * load_checkpoint() ignores records without the trailing "end" sentinel
//     — a writer killed mid-append loses at most that one shard, which
//     simply reruns. A *complete* record (sentinel present) that fails to
//     parse — an unknown magic/version, an unknown tool or vantage kind, a
//     non-canonical token — is a loud contract violation instead: silently
//     re-running it would silently double-merge whatever the unknown record
//     already folded.
//
// File format, one record per line (integers decimal, spec hash and doubles
// 16-hex-digit; digests as in stats/digest_io):
//   ckpt2 <scenario_index> <shard_seed> <spec_hash> <phones> <sent> <lost>
//   <frames> <events> <sim_seconds> <ndigests> [<tool> <probes> <lost>
//   <rtt-digest> <du-digest> <dk-digest> <dv-digest> <dn-digest>
//   <passive-sniffer-samples> <passive-app-samples>
//   <passive-sniffer-digest> <passive-app-digest>]... end
// The grammar is canonical: exactly one space between tokens, decimals
// without sign or leading zero, hex as exactly 16 lowercase digits, tools
// by their grid_name(), and nothing after "end" but one optional '\n'. So
// render_checkpoint_record(parsed) reproduces every line the parser
// accepts, byte for byte — the property that lets the fabric coordinator
// store a worker's line as received and compaction copy a validated line
// instead of rendering either again.
// (ckpt1, the pre-passive format, is an unknown kind: resuming a campaign
// against a ckpt1 file fails loudly rather than guessing at its digests.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report/digest_sink.hpp"
#include "report/event.hpp"
#include "report/line_writer.hpp"

namespace acute::report {

/// One completed shard — the campaign's only shard outcome, in memory, on
/// disk and on the fabric wire: exact counters + per-workload digests
/// (ascending ToolKind). Per-probe samples are not part of it; they reach
/// callers only through CampaignSpec::sinks.
struct ShardCheckpoint {
  ShardSummary summary;
  /// Fingerprint of the spec that produced this shard (Campaign hashes its
  /// probe schedule + the scenario's shape); resume rejects records whose
  /// hash does not match the current spec, so an edited campaign cannot
  /// silently absorb stale shards.
  std::uint64_t spec_hash = 0;
  std::vector<WorkloadDigest> digests;
};

/// What compact_checkpoint() left at a path: the file is canonical — every
/// line one complete record, scenario indices strictly ascending, ending in
/// '\n' — or absent.
struct CompactionResult {
  /// Complete records in the file, one per scenario index.
  std::size_t records = 0;
  /// The last (highest) record's scenario index; empty without records.
  std::optional<std::size_t> last_index;
};

/// Shared, thread-safe appender. Construct after load_checkpoint() — opening
/// is append-mode (healing a previous kill's torn final line), so existing
/// records survive.
class CheckpointWriter {
 public:
  /// Contract violation when `path` is unwritable. The file's shape is
  /// unknown, so canonical() stays false.
  explicit CheckpointWriter(std::string path)
      : writer_(std::move(path), /*append=*/true) {}

  /// Opens the file compact_checkpoint() just reported as `compacted`, so
  /// the writer knows it starts canonical.
  CheckpointWriter(std::string path, const CompactionResult& compacted)
      : writer_(std::move(path), /*append=*/true),
        canonical_(true),
        last_index_(compacted.last_index) {}

  /// Renders one record and appends it atomically, then flushes. Contract
  /// violation when the bytes did not reach the file (a full disk): the
  /// caller must not merge a shard that is not durable.
  void append(const ShardCheckpoint& checkpoint);

  /// Appends a record line the caller already holds and has validated with
  /// parse_checkpoint_record() (a fabric worker's shard_done line) as the
  /// record of `scenario_index`, adding the '\n' if it lacks one. A parsed
  /// line is canonical, so these are the bytes append() would write for the
  /// parsed record. Fails as append() does.
  void append_line(std::string_view line, std::size_t scenario_index);

  /// True while the file is what compact_checkpoint() would write: the
  /// writer was opened on a compacted file and every append since carried
  /// a strictly higher scenario index than the record before it. Read it
  /// once the appenders have stopped.
  [[nodiscard]] bool canonical() const { return canonical_; }

  [[nodiscard]] const std::string& path() const { return writer_.path(); }

 private:
  LineWriter writer_;
  // Guarded by writer_'s lock: updated in the order the lines land.
  bool canonical_ = false;
  std::optional<std::size_t> last_index_;
};

/// Streaming cursor over the records at `path`, in file order. Holds one
/// record's worth of state: the campaign restore folds a compacted file
/// (ascending-unique scenario order) through this instead of materializing
/// an O(shards) vector. A missing file is an immediately-exhausted cursor.
/// Records appended by a concurrent writer after construction land beyond
/// the cursor's initial extent and are simply read if reached — callers
/// that must not see them (resume) stop after a known record count.
class CheckpointReader {
 public:
  /// Starts after the first `skip_lines` lines, which it never parses (the
  /// restore has folded a compacted file's leading records already).
  explicit CheckpointReader(const std::string& path,
                            std::size_t skip_lines = 0);

  /// Parses the next complete record into `out`; false once the file is
  /// exhausted. Malformed lines — the torn last line of a killed writer —
  /// are skipped, the same rule load_checkpoint applies.
  bool next(ShardCheckpoint& out);

 private:
  std::ifstream in_;
  std::string line_;
};

/// Applies `fn` to every complete record at `path` in file order, one
/// record in memory at a time. A missing file applies `fn` zero times (a
/// fresh campaign); malformed lines are skipped.
void for_each_checkpoint(const std::string& path,
                         const std::function<void(ShardCheckpoint&&)>& fn);

/// Parses every complete record at `path`; a missing file yields an empty
/// vector (a fresh campaign). Records that fail to parse — the torn last
/// line of a killed writer — are skipped, so their shards rerun.
/// Materializes the whole file: prefer CheckpointReader/for_each_checkpoint
/// for large campaigns.
[[nodiscard]] std::vector<ShardCheckpoint> load_checkpoint(
    const std::string& path);

/// Renders one record as exactly the line CheckpointWriter::append would
/// write, trailing newline included (load_checkpoint parses it back
/// bit-identically).
[[nodiscard]] std::string render_checkpoint_record(
    const ShardCheckpoint& checkpoint);

/// Parses one canonical record line (render_checkpoint_record's inverse,
/// trailing newline optional); returns false on a torn write (no "end"
/// sentinel — the writer died mid-append, the shard simply reruns). A line
/// the writer *finished* that still fails to parse — an unknown record kind
/// or version, a foreign tool/vantage name, a non-canonical token — is a
/// loud contract violation: silently skipping it would re-run and
/// double-merge a shard the file already accounts for. The fabric wire
/// protocol ships ckpt2 lines verbatim, so this is also the frame-payload
/// decoder.
[[nodiscard]] bool parse_checkpoint_record(std::string_view line,
                                           ShardCheckpoint& out);

/// Sees each complete record of a compaction's first pass, in file order,
/// while it is still in memory. It may consume the record (move its digests
/// out): pass 1 keeps only the record's scenario index and byte offset.
using CheckpointVisitor = std::function<void(ShardCheckpoint&)>;

/// Rewrites `path` to one record per shard: records are deduplicated by
/// scenario index — the last complete record wins (the one duplicate rule) —
/// and written in ascending scenario order, without ever materializing the
/// file. Pass 1 parses every line once, hands each complete record to `visit`
/// (when given) and keeps a flat (scenario index, byte offset) vector in file
/// order (O(shards) offsets, not digests). A file pass 1 finds canonical (see
/// CompactionResult) is already what compaction would write and is left as it
/// is: no temp file, no rename, no fsync, and no sort. Otherwise the offsets
/// are sorted in place and reduced to the last-wins winners by index, and pass
/// 2 visits them in ascending order, reading forward and seeking only past
/// lines that lost, re-parses each and copies its validated bytes into the temp
/// file. Either way the result holds the winners in ascending index order, so
/// when shards 0..k-1 all have records its first k lines are their winners: the
/// campaign restore folds that run as `visit` sees it and later skips those
/// lines unparsed. The rewrite is crash-safe: the temp file is flushed and
/// fsync'd before being renamed over `path` (with a best-effort directory fsync
/// after), so a power cut mid-compaction leaves either the old complete file or
/// the new complete file, never a truncated hybrid. An exception from `visit`
/// (or a loud parse failure) leaves the file untouched, since pass 1 writes
/// nothing. Call before opening an append-mode CheckpointWriter on the same
/// path. A missing file is a no-op.
CompactionResult compact_checkpoint(const std::string& path,
                                    const CheckpointVisitor& visit = {});

}  // namespace acute::report
