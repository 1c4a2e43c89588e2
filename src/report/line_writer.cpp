#include "report/line_writer.hpp"

#include <fstream>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::report {

using sim::expects;

struct LineWriter::Impl {
  std::ofstream out;

  /// Flushes; true when every byte so far reached the file.
  bool flush() {
    out.flush();
    return out.good();
  }
};

namespace {

constexpr const char* kShortWrite =
    "LineWriter: append did not reach the file (short write)";

/// True when `path` exists, is non-empty and does not end in '\n' — the
/// torn last line of a killed writer. An appender must close that line
/// first, or its first record glues onto the torn one and both are lost.
bool has_torn_final_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  in.seekg(0, std::ios::end);
  if (in.tellg() <= 0) return false;
  in.seekg(-1, std::ios::end);
  char last = '\n';
  in.get(last);
  return last != '\n';
}

}  // namespace

LineWriter::LineWriter(std::string path, bool append)
    : impl_(std::make_unique<Impl>()), path_(std::move(path)) {
  const bool torn = append && has_torn_final_line(path_);
  impl_->out.open(path_, append ? std::ios::app : std::ios::trunc);
  expects(impl_->out.is_open(), "LineWriter: cannot open output file");
  if (torn) impl_->out << '\n';  // the torn record stays unparseable; the
                                 // records appended after it stay intact
}

LineWriter::~LineWriter() = default;

void LineWriter::append_block(const std::string& block) {
  const std::lock_guard<std::mutex> lock(mutex_);
  impl_->out << block;
  expects(impl_->flush(), kShortWrite);
}

void LineWriter::append_line(std::string_view line,
                             const std::function<void(bool ok)>& landed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  impl_->out << line;
  if (line.empty() || line.back() != '\n') impl_->out << '\n';
  const bool ok = impl_->flush();
  if (landed) landed(ok);
  expects(ok, kShortWrite);
}

}  // namespace acute::report
