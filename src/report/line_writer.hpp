// The shared line-oriented file backend of the streaming exports.
//
// Both durable outputs of the pipeline — the JSONL export and the
// checkpoint — are files of independent '\n'-terminated records appended
// concurrently by per-shard sinks. LineWriter owns the mechanism once:
// locked atomic block appends with a flush per append (a kill tears at
// most the record being written), a loud failure when the bytes do not
// reach the file (a full disk must not pass for a durable record), and,
// when opened for append, healing a previous kill's torn final line so
// later records never glue onto it.
#pragma once

#include <functional>
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
  /// flushes. Contract violation when the flushed stream reports a failed
  /// write.
  void append_block(const std::string& block);

  /// Appends `line` plus a '\n' when it lacks one, atomically, and flushes;
  /// fails as append_block does. `landed(ok)`, when given, runs under the
  /// write lock once the flush reports whether the bytes reached the file,
  /// before any failure is raised, so a caller can keep per-file state in
  /// the order the lines land.
  void append_line(std::string_view line,
                   const std::function<void(bool ok)>& landed = {});

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::mutex mutex_;
  std::string path_;
};

}  // namespace acute::report
