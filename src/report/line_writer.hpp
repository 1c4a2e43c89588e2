// The shared line-oriented file backend of the streaming exports.
//
// Both durable outputs of the pipeline — the JSONL export and the
// checkpoint — are files of independent '\n'-terminated records appended
// concurrently by per-shard sinks. LineWriter owns the mechanism once:
// locked atomic block appends with a flush per append (a kill tears at
// most the record being written), and, when opened for append, healing a
// previous kill's torn final line so later records never glue onto it.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace acute::report {

class LineWriter {
 public:
  /// Opens `path` — truncating, or appending with append=true (healing a
  /// torn final line first). Contract violation when unwritable.
  LineWriter(std::string path, bool append);
  ~LineWriter();

  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  /// Appends `block` (complete '\n'-terminated lines) atomically and
  /// flushes.
  void append_block(const std::string& block);

  /// Appends `line` plus a '\n' when it lacks one, atomically, and flushes.
  void append_line(std::string_view line);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::mutex mutex_;
  std::string path_;
};

}  // namespace acute::report
