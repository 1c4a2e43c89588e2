// Streaming results pipeline: digest snapshot/serialization exactness, the
// checkpoint record round-trip (including torn-write tolerance), JSONL
// export shape, and the sink event-delivery contract driven by a real
// campaign shard.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "report/checkpoint.hpp"
#include "report/digest_sink.hpp"
#include "report/jsonl_sink.hpp"
#include "sim/contracts.hpp"
#include "sim/random.hpp"
#include "stats/digest_io.hpp"
#include "testbed/campaign.hpp"

namespace acute::report {
namespace {

using namespace acute::sim::literals;
using stats::MergingDigest;
using tools::ToolKind;

/// A unique temp path per test (files live under the build tree's cwd).
std::string temp_path(const std::string& name) {
  return "report_test_" + name;
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

MergingDigest sample_digest(int samples, double offset) {
  MergingDigest digest;
  for (int i = 0; i < samples; ++i) {
    digest.add(offset + 0.1 * i + (i % 7) * 0.013);
  }
  return digest;
}

TEST(DigestSnapshot, RestoresBitIdenticalState) {
  const MergingDigest original = sample_digest(1000, 20.0);
  const MergingDigest restored =
      MergingDigest::from_snapshot(original.snapshot());
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.mean(), original.mean());
  EXPECT_EQ(restored.stddev(), original.stddev());
  EXPECT_EQ(restored.min(), original.min());
  EXPECT_EQ(restored.max(), original.max());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(restored.quantile(q), original.quantile(q)) << "q=" << q;
  }

  // The resume-critical property: MERGING into a restored digest behaves
  // bit-identically to merging into the original.
  MergingDigest into_original = original;
  MergingDigest into_restored = restored;
  const MergingDigest other = sample_digest(500, 35.0);
  into_original.merge(other);
  into_restored.merge(other);
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(into_original.quantile(q), into_restored.quantile(q));
  }
  EXPECT_EQ(into_original.centroid_count(), into_restored.centroid_count());
}

TEST(DigestSnapshot, RejectsStructurallyInvalidSnapshots) {
  stats::DigestSnapshot snap = sample_digest(100, 1.0).snapshot();
  snap.count += 1;  // weights no longer sum to count
  EXPECT_THROW((void)MergingDigest::from_snapshot(snap),
               sim::ContractViolation);
  stats::DigestSnapshot unsorted = sample_digest(100, 1.0).snapshot();
  ASSERT_GE(unsorted.centroids.size(), 2u);
  std::swap(unsorted.centroids.front(), unsorted.centroids.back());
  EXPECT_THROW((void)MergingDigest::from_snapshot(unsorted),
               sim::ContractViolation);
}

/// Reads one digest from the start of `text`.
MergingDigest read_digest_text(const std::string& text) {
  stats::TokenCursor in(text);
  return stats::read_digest(in);
}

TEST(DigestIo, TextRoundTripIsExact) {
  const MergingDigest original = sample_digest(777, -3.25);
  std::stringstream stream;
  stats::write_digest(stream, original);
  const MergingDigest restored = read_digest_text(stream.str());
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.mean(), original.mean());
  for (const double q : {0.1, 0.5, 0.9, 0.999}) {
    EXPECT_EQ(restored.quantile(q), original.quantile(q));
  }
}

TEST(DigestIo, DoubleBitsSurviveExtremes) {
  for (const double x : {0.0, -0.0, 1e-310, -1e308, 3.141592653589793}) {
    EXPECT_EQ(stats::double_bits(stats::double_from_bits(
                  stats::double_bits(x))),
              stats::double_bits(x));
  }
}

TEST(DigestIo, RejectsMalformedStreams) {
  EXPECT_THROW((void)read_digest_text("notadigest 1 2 3"),
               sim::ContractViolation);
  EXPECT_THROW((void)read_digest_text("dgst 128 10"), sim::ContractViolation);
}

ShardCheckpoint sample_checkpoint(std::size_t index) {
  ShardCheckpoint record;
  record.summary.info = ShardInfo{index, 0xdeadbeef + index, 2};
  record.summary.probes_sent = 40;
  record.summary.probes_lost = 3;
  record.summary.frames_on_air = 1234;
  record.summary.events_fired = 98765;
  record.summary.sim_seconds = 12.5;
  record.spec_hash = 0xfeedface12345678ull;
  WorkloadDigest digest;
  digest.tool = ToolKind::httping;
  digest.probes = 40;
  digest.lost = 3;
  digest.reported_rtt_ms = sample_digest(37, 30.0);
  digest.du_ms = sample_digest(37, 31.0);
  digest.dk_ms = sample_digest(37, 29.0);
  digest.dv_ms = sample_digest(37, 28.0);
  digest.dn_ms = sample_digest(37, 27.0);
  record.digests.push_back(std::move(digest));
  return record;
}

TEST(Checkpoint, AppendLoadRoundTrip) {
  TempFile file("ckpt_roundtrip");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(4));
    writer.append(sample_checkpoint(9));
  }
  const auto records = load_checkpoint(file.path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].summary.info.scenario_index, 4u);
  EXPECT_EQ(records[1].summary.info.scenario_index, 9u);
  const ShardCheckpoint expected = sample_checkpoint(4);
  const ShardCheckpoint& loaded = records[0];
  EXPECT_EQ(loaded.summary.info.shard_seed, expected.summary.info.shard_seed);
  EXPECT_EQ(loaded.summary.probes_sent, expected.summary.probes_sent);
  EXPECT_EQ(loaded.summary.probes_lost, expected.summary.probes_lost);
  EXPECT_EQ(loaded.summary.frames_on_air, expected.summary.frames_on_air);
  EXPECT_EQ(loaded.summary.events_fired, expected.summary.events_fired);
  EXPECT_EQ(loaded.summary.sim_seconds, expected.summary.sim_seconds);
  EXPECT_EQ(loaded.spec_hash, expected.spec_hash);
  ASSERT_EQ(loaded.digests.size(), 1u);
  EXPECT_EQ(loaded.digests[0].tool, ToolKind::httping);
  EXPECT_EQ(loaded.digests[0].probes, 40u);
  EXPECT_EQ(loaded.digests[0].reported_rtt_ms.quantile(0.5),
            expected.digests[0].reported_rtt_ms.quantile(0.5));
  EXPECT_EQ(loaded.digests[0].dn_ms.mean(), expected.digests[0].dn_ms.mean());
}

TEST(Checkpoint, MissingFileIsAFreshCampaign) {
  EXPECT_TRUE(load_checkpoint(temp_path("never_written")).empty());
}

TEST(Checkpoint, TornTrailingRecordIsSkipped) {
  TempFile file("ckpt_torn");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(0));
    writer.append(sample_checkpoint(1));
  }
  // Simulate a kill mid-append: chop the file inside the last record.
  std::string contents;
  {
    std::ifstream in(file.path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << contents.substr(0, contents.size() - 40);
  }
  const auto records = load_checkpoint(file.path);
  ASSERT_EQ(records.size(), 1u);  // the torn record 1 is gone, 0 survives
  EXPECT_EQ(records[0].summary.info.scenario_index, 0u);

  // Appending after the kill must close the torn line first: the new
  // record may not glue onto the torn one (or the resume would lose its
  // own first shard on every subsequent load).
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(7));
  }
  const auto repaired = load_checkpoint(file.path);
  ASSERT_EQ(repaired.size(), 2u);
  EXPECT_EQ(repaired[0].summary.info.scenario_index, 0u);
  EXPECT_EQ(repaired[1].summary.info.scenario_index, 7u);
}

TEST(Checkpoint, UnknownCompleteRecordKindFailsLoudly) {
  // The torn-tolerance rule is narrow: only a line WITHOUT the trailing
  // "end" sentinel (a kill mid-append) may be skipped. A COMPLETE record
  // of an unknown kind — a ckpt1-era file, a future format, a corrupted
  // byte range that still ends in " end" — means silently skipping would
  // silently rerun (and double-append) every shard it held. Every reading
  // surface must refuse instead.
  TempFile file("ckpt_unknown_kind");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(0));
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "ckpt1 3 123 8 0 1 end\n";
  }
  EXPECT_THROW((void)load_checkpoint(file.path), sim::ContractViolation);
  {
    CheckpointReader reader(file.path);
    ShardCheckpoint record;
    ASSERT_TRUE(reader.next(record));  // record 0 parses fine
    EXPECT_THROW((void)reader.next(record), sim::ContractViolation);
  }
  EXPECT_THROW(
      for_each_checkpoint(file.path, [](ShardCheckpoint&&) {}),
      sim::ContractViolation);
  EXPECT_THROW(compact_checkpoint(file.path), sim::ContractViolation);
}

TEST(Checkpoint, CorruptCompleteRecordFailsLoudly) {
  // Same rule for a line that IS ckpt2-prefixed and sentinel-complete but
  // whose body no longer parses: that is corruption, not a torn write.
  TempFile file("ckpt_corrupt_body");
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << "ckpt2 0 not-a-seed 1 end\n";
  }
  EXPECT_THROW((void)load_checkpoint(file.path), sim::ContractViolation);
}

/// What a reader makes of `line`. Hostile input may only be rejected
/// (false) or refused loudly (ContractViolation); any other exception
/// escapes and fails the calling test. A line that parses must be
/// canonical: it re-renders to exactly its own bytes (the trailing newline
/// is optional on input and always written on output).
enum class ParseOutcome { parsed, rejected, violation };

ParseOutcome parse_outcome(const std::string& line) {
  ShardCheckpoint record;
  try {
    if (!parse_checkpoint_record(line, record)) return ParseOutcome::rejected;
  } catch (const sim::ContractViolation&) {
    return ParseOutcome::violation;
  }
  const bool has_newline = !line.empty() && line.back() == '\n';
  EXPECT_EQ(render_checkpoint_record(record), has_newline ? line : line + '\n')
      << "accepted a non-canonical line";
  return ParseOutcome::parsed;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (const std::string& token : tokens) line += token + ' ';
  line.back() = '\n';
  return line;
}

TEST(Checkpoint, HostileCountsCompressionAndHashesNeverEscapeTheContract) {
  const std::vector<std::string> valid =
      split_tokens(render_checkpoint_record(sample_checkpoint(3)));
  ASSERT_EQ(parse_outcome(join_tokens(valid)), ParseOutcome::parsed);
  // ckpt2 index seed hash phones sent lost frames events sim_bits n_digests
  // tool probes lost dgst compression count sum sum_sq min max n_centroids
  // mean weight ...
  constexpr std::size_t kHash = 3, kSimBits = 9, kDigestCount = 10,
                        kCompression = 15, kCentroidCount = 21,
                        kFirstMean = 22;
  ASSERT_EQ(valid[14], "dgst");

  const std::vector<std::string> huge_counts = {
      "18446744073709551615", "9223372036854775808", "4611686018427387904",
      "1152921504606846976", "100000000"};
  const std::vector<std::string> non_hex = {
      "0x00000000000001", "-000000000000001", "+00000000000000f",
      "zzzzzzzzzzzzzzzz", "00000000000000g1", "0000000000000001x",
      "000000000000001"};
  struct Mutation {
    std::size_t token;
    std::vector<std::string> values;
  };
  std::vector<std::string> huge_compression = huge_counts;
  huge_compression.push_back(
      std::to_string(stats::MergingDigest::kMaxCompression + 1));
  const Mutation mutations[] = {
      {kHash, non_hex},
      {kSimBits, non_hex},
      {kFirstMean, non_hex},
      {kDigestCount, huge_counts},
      {kCompression, huge_compression},
      {kCentroidCount, huge_counts},
  };
  for (const Mutation& mutation : mutations) {
    for (const std::string& value : mutation.values) {
      SCOPED_TRACE("token " + std::to_string(mutation.token) + " = " + value);
      std::vector<std::string> tokens = valid;
      tokens[mutation.token] = value;
      // With the sentinel the record is complete, so a parse failure is
      // loud; cut before it, the same bytes are a torn fragment.
      EXPECT_EQ(parse_outcome(join_tokens(tokens)),
                ParseOutcome::violation);
      tokens.pop_back();
      EXPECT_EQ(parse_outcome(join_tokens(tokens)), ParseOutcome::rejected);
    }
  }

  // The digest parser alone, fed an oversized centroid count or
  // compression in front of a blob far too short to back it.
  const std::string doubles =
      " 4000000000000000 4000000000000000 4000000000000000 4000000000000000";
  for (const std::string& count : huge_counts) {
    SCOPED_TRACE("count " + count);
    const std::string centroids = "dgst 128 1" + doubles + " " + count +
                                  " 4000000000000000 3ff0000000000000";
    EXPECT_THROW((void)read_digest_text(centroids), sim::ContractViolation);
    const std::string compression = "dgst " + count + " 0" + doubles + " 0";
    EXPECT_THROW((void)read_digest_text(compression),
                 sim::ContractViolation);
  }

  // Seeded token-replacement fuzz over the whole record: whatever lands
  // where, the outcome stays inside the contract.
  std::vector<std::string> dictionary = huge_counts;
  dictionary.insert(dictionary.end(), non_hex.begin(), non_hex.end());
  for (const char* token : {"0", "1", "-1", "dgst", "end", "ckpt2", "nan",
                            "3ff0000000000000", "fff8000000000000"}) {
    dictionary.emplace_back(token);
  }
  sim::Rng rng(20260613);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::string> tokens = valid;
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(tokens.size()) - 1));
      tokens[at] = dictionary[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(dictionary.size()) - 1))];
    }
    if (rng.bernoulli(0.3)) {
      tokens.resize(static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(tokens.size()))));
    }
    (void)parse_outcome(join_tokens(tokens));
  }

  // Seeded byte-level fuzz: flip one bit of, insert or delete one byte of a
  // rendered line. Many flips swap one hex digit for another and still
  // parse; parse_outcome() then checks the line re-renders to its bytes.
  const std::string rendered = render_checkpoint_record(sample_checkpoint(3));
  const std::string pool = " \t\n\r\v0159adefADF+-xg";
  std::size_t parsed = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    std::string line = rendered;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
    const char byte = rng.bernoulli(0.5)
                          ? pool[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(pool.size()) -
                                       1))]
                          : static_cast<char>(rng.uniform_int(0, 255));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        line[at] = static_cast<char>(line[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      case 1:
        line.insert(at, 1, byte);
        break;
      default:
        line.erase(at, 1);
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    if (parse_outcome(line) == ParseOutcome::parsed) ++parsed;
  }
  EXPECT_GT(parsed, 0u);  // the round-trip property was exercised
}

TEST(Checkpoint, NonCanonicalCompleteRecordsAreRefused) {
  // The istream parser this codec replaced accepted every line below as a
  // record: "-1" read as 2^64-1 probes, leading zeros and '+' signs, runs
  // of spaces or tabs, uppercase hex. Each is complete (it ends in the
  // sentinel), so each is now a loud refusal; cut before the sentinel, the
  // same bytes are a torn fragment.
  const std::string valid = render_checkpoint_record(sample_checkpoint(5));
  ASSERT_EQ(parse_outcome(valid), ParseOutcome::parsed);
  const std::vector<std::string> tokens = split_tokens(valid);
  // ckpt2 index seed hash phones sent lost frames events sim_bits ...
  // ... tool probes lost dgst compression count sum sum_sq min max
  // n_centroids mean ...
  constexpr std::size_t kIndex = 1, kHash = 3, kSent = 5, kFrames = 7,
                        kTool = 11, kFirstMean = 22;
  ASSERT_EQ(tokens[kIndex], "5");
  ASSERT_EQ(tokens[kSent], "40");
  ASSERT_EQ(tokens[kHash], "feedface12345678");
  ASSERT_EQ(tokens[kFirstMean], "403e000000000000");
  const auto with_token = [&](std::size_t at, const std::string& value) {
    std::vector<std::string> edited = tokens;
    edited[at] = value;
    return join_tokens(edited);
  };
  const auto with_separator = [&](std::size_t at, const std::string& value) {
    std::string line = valid;
    std::size_t pos = 0;
    for (std::size_t i = 0; i <= at; ++i) pos = line.find(' ', pos + 1);
    return line.replace(pos, 1, value);
  };
  const auto upper = [](std::string text) {
    for (char& c : text) {
      if (c >= 'a' && c <= 'f') c = static_cast<char>(c - 'a' + 'A');
    }
    return text;
  };
  const std::pair<const char*, std::string> cases[] = {
      {"negative count", with_token(kSent, "-1")},
      {"leading zeros", with_token(kIndex, "005")},
      {"single leading zero", with_token(kFrames, "01234")},
      {"leading plus", with_token(kSent, "+40")},
      {"run of spaces", with_separator(4, "  ")},
      {"tab separator", with_separator(4, "\t")},
      {"tab before the sentinel", valid.substr(0, valid.size() - 5) + "\tend\n"},
      {"uppercase hash", with_token(kHash, upper(tokens[kHash]))},
      {"uppercase double", with_token(kFirstMean, upper(tokens[kFirstMean]))},
      {"tool alias", with_token(kTool, "ping")},
      {"trailing space", valid.substr(0, valid.size() - 1) + " \n"},
      {"second newline", valid + "\n"},
      {"carriage return", valid.substr(0, valid.size() - 1) + "\r\n"},
  };
  for (const auto& [what, line] : cases) {
    SCOPED_TRACE(what);
    ASSERT_NE(line, valid);
    EXPECT_EQ(parse_outcome(line), ParseOutcome::violation);
    const std::string fragment = line.substr(0, line.rfind("end"));
    EXPECT_EQ(parse_outcome(fragment), ParseOutcome::rejected);
  }
}

TEST(Checkpoint, TornUnknownKindFragmentIsStillSkipped) {
  // The counterpart: the same foreign prefix WITHOUT the sentinel is a
  // torn write by definition and stays silently skippable — loud failure
  // must not break kill-tolerance for fragments.
  TempFile file("ckpt_unknown_torn");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(0));
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "ckpt1 3 123 torn-fragmen";
  }
  const auto records = load_checkpoint(file.path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].summary.info.scenario_index, 0u);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ino_t file_inode(const std::string& path) {
  struct stat info {};
  EXPECT_EQ(::stat(path.c_str(), &info), 0);
  return info.st_ino;
}

TEST(Checkpoint, CompactionDedupesAndSortsRecords) {
  // Each case is a file's lines — a scenario index stands for
  // sample_checkpoint(index)'s rendered record, anything else is written
  // as is — and the ascending unique indices compaction must leave. A
  // canonical file (complete records, strictly ascending, final '\n') is
  // left untouched; every other shape is rewritten through a temp file to
  // exactly the rendered winners.
  using Line = std::variant<std::size_t, std::string>;
  struct Case {
    const char* name;
    std::vector<Line> lines;
    std::vector<std::size_t> expected;
    bool rewritten;
  };
  const std::string torn = "ckpt1 11 123 torn-fragmen";
  std::string unterminated = render_checkpoint_record(sample_checkpoint(5));
  unterminated.pop_back();
  const std::vector<Case> cases = {
      {"canonical", {2u, 5u, 9u}, {2, 5, 9}, false},
      {"empty", {}, {}, false},
      {"duplicate", {2u, 5u, 5u, 9u}, {2, 5, 9}, true},
      {"descending_pair", {2u, 9u, 5u}, {2, 5, 9}, true},
      {"torn_tail", {2u, 5u, torn}, {2, 5}, true},
      {"torn_middle", {2u, torn + "\n", 5u}, {2, 5}, true},
      {"blank_line", {2u, std::string("\n"), 5u}, {2, 5}, true},
      {"no_final_newline", {2u, unterminated}, {2, 5}, true},
      {"mixed", {9u, 2u, 9u, 5u, torn}, {2, 5, 9}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempFile file(std::string("ckpt_compact_") + c.name);
    {
      std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
      for (const Line& line : c.lines) {
        if (const auto* index = std::get_if<std::size_t>(&line)) {
          out << render_checkpoint_record(sample_checkpoint(*index));
        } else {
          out << std::get<std::string>(line);
        }
      }
    }
    std::string expected;
    for (const std::size_t index : c.expected) {
      expected += render_checkpoint_record(sample_checkpoint(index));
    }
    const std::string before = file_bytes(file.path);
    const ino_t inode = file_inode(file.path);
    std::vector<std::size_t> visited;
    const CompactionResult result = compact_checkpoint(
        file.path, [&visited](const ShardCheckpoint& record) {
          visited.push_back(record.summary.info.scenario_index);
        });

    EXPECT_EQ(result.records, c.expected.size());
    EXPECT_EQ(result.last_index.has_value(), !c.expected.empty());
    if (!c.expected.empty()) EXPECT_EQ(*result.last_index, c.expected.back());
    EXPECT_EQ(file_bytes(file.path), expected);
    EXPECT_EQ(file_inode(file.path) == inode, !c.rewritten);
    if (!c.rewritten) EXPECT_EQ(file_bytes(file.path), before);
    EXPECT_FALSE(std::ifstream(file.path + ".compact").is_open());
    // The visitor sees every complete record in file order, duplicates
    // included, before anything is rewritten.
    std::vector<std::size_t> complete;
    for (const Line& line : c.lines) {
      ShardCheckpoint record;
      if (const auto* index = std::get_if<std::size_t>(&line)) {
        complete.push_back(*index);
      } else if (parse_checkpoint_record(std::get<std::string>(line),
                                         record)) {
        complete.push_back(record.summary.info.scenario_index);
      }
    }
    EXPECT_EQ(visited, complete);
  }
}

TEST(Checkpoint, VisitorFailureLeavesTheFileUntouched) {
  // Pass 1 writes nothing: a record the visitor refuses stops compaction
  // before any byte of a file that needs rewriting moves.
  TempFile file("ckpt_compact_refused");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(9));
    writer.append(sample_checkpoint(2));
  }
  const std::string before = file_bytes(file.path);
  EXPECT_THROW(compact_checkpoint(file.path,
                                  [](const ShardCheckpoint& record) {
                                    sim::expects(
                                        record.summary.info.scenario_index !=
                                            2,
                                        "refused");
                                  }),
               sim::ContractViolation);
  EXPECT_EQ(file_bytes(file.path), before);
  EXPECT_FALSE(std::ifstream(file.path + ".compact").is_open());
}

TEST(Checkpoint, WriterTracksWhetherAppendsKeepTheFileCanonical) {
  TempFile file("ckpt_writer_canonical");
  {
    CheckpointWriter unknown(file.path);  // shape unknown: never canonical
    unknown.append(sample_checkpoint(1));
    EXPECT_FALSE(unknown.canonical());
  }
  const CompactionResult compacted = compact_checkpoint(file.path);
  CheckpointWriter writer(file.path, compacted);
  EXPECT_TRUE(writer.canonical());
  writer.append(sample_checkpoint(4));
  writer.append_line(render_checkpoint_record(sample_checkpoint(6)), 6);
  EXPECT_TRUE(writer.canonical());
  writer.append(sample_checkpoint(6));  // a duplicate breaks the order
  EXPECT_FALSE(writer.canonical());
  writer.append(sample_checkpoint(8));  // and nothing restores it
  EXPECT_FALSE(writer.canonical());
}

TEST(Checkpoint, FailedAppendsAreLoudNotSilentlyDropped) {
  // A record that never reached the disk must not pass for durable: the
  // campaign appends before it merges, so a silent failure would merge a
  // shard the checkpoint does not hold. /dev/full accepts the open and
  // fails every write with ENOSPC. The JSONL export shares the backend.
  if (!std::ifstream("/dev/full").is_open()) GTEST_SKIP() << "no /dev/full";
  CheckpointWriter writer("/dev/full");
  EXPECT_THROW(writer.append(sample_checkpoint(3)), sim::ContractViolation);
  EXPECT_THROW(
      writer.append_line(render_checkpoint_record(sample_checkpoint(4)), 4),
      sim::ContractViolation);
  EXPECT_FALSE(writer.canonical());
  JsonlWriter export_writer("/dev/full", /*append=*/true);
  EXPECT_THROW(export_writer.append_block("{}\n"), sim::ContractViolation);
}

TEST(Checkpoint, StreamingCompactionOfMissingFileIsANoop) {
  const std::string path = temp_path("ckpt_compact_missing");
  compact_checkpoint(path);  // must not create the file or throw
  EXPECT_FALSE(std::ifstream(path).is_open());
}

TEST(Checkpoint, ReaderStreamsRecordsInFileOrderSkippingTornLines) {
  TempFile file("ckpt_reader");
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(3));
    writer.append(sample_checkpoint(1));
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "ckpt1 11 torn\n";  // a torn line in the middle, not just the tail
  }
  {
    CheckpointWriter writer(file.path);
    writer.append(sample_checkpoint(6));
  }
  CheckpointReader reader(file.path);
  ShardCheckpoint record;
  std::vector<std::size_t> order;
  while (reader.next(record)) {
    order.push_back(record.summary.info.scenario_index);
    EXPECT_EQ(record.digests.size(), 1u);  // each record parses in full
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 6}));

  // for_each_checkpoint is the same cursor behind a fold callback, and
  // load_checkpoint is for_each into a vector — all three must agree.
  std::vector<std::size_t> folded;
  for_each_checkpoint(file.path, [&](ShardCheckpoint&& r) {
    folded.push_back(r.summary.info.scenario_index);
  });
  EXPECT_EQ(folded, order);
  const auto loaded = load_checkpoint(file.path);
  ASSERT_EQ(loaded.size(), order.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].summary.info.scenario_index, order[i]);
  }
}

TEST(Checkpoint, ReaderOnMissingFileIsImmediatelyExhausted) {
  CheckpointReader reader(temp_path("ckpt_reader_missing"));
  ShardCheckpoint record;
  EXPECT_FALSE(reader.next(record));
}

TEST(JsonlReorder, ReleasesBlocksInSequenceOrder) {
  TempFile file("jsonl_reorder");
  {
    JsonlWriter writer(file.path, /*append=*/false, /*window=*/8);
    writer.submit_block(2, "c\n");
    writer.submit_block(1, "b\n");
    writer.submit_block(0, "a\n");
    writer.submit_block(3, "d\n");
  }
  std::ifstream in(file.path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "a\nb\nc\nd\n");
}

TEST(JsonlReorder, AbandonedSequenceDoesNotStallTheWindow) {
  TempFile file("jsonl_abandon");
  {
    JsonlWriter writer(file.path, /*append=*/false, /*window=*/8);
    writer.submit_block(2, "late\n");
    writer.abandon(0);  // a dead shard must release its slot
    writer.submit_block(1, "mid\n");
  }
  std::ifstream in(file.path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "mid\nlate\n");
}

TEST(JsonlReorder, SequenceRestartBeginsANewInvocation) {
  // A writer reused across Campaign::run invocations (incremental resume
  // ticks) sees run sequences restart at zero. reset_sequence() starts the
  // new epoch explicitly; a submit below the release point (here: the
  // out-of-order 1 before 0) is also auto-detected as a restart.
  TempFile file("jsonl_epoch");
  {
    JsonlWriter writer(file.path, /*append=*/false, /*window=*/4);
    writer.submit_block(0, "tick1-a\n");
    writer.submit_block(1, "tick1-b\n");
    writer.reset_sequence();
    writer.submit_block(1, "tick2-b\n");
    writer.submit_block(0, "tick2-a\n");
    writer.submit_block(2, "tick2-c\n");
    writer.submit_block(0, "tick3-a\n");  // auto-detected restart
  }
  std::ifstream in(file.path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(),
            "tick1-a\ntick1-b\ntick2-a\ntick2-b\ntick2-c\ntick3-a\n");
}

TEST(DigestSinkTest, FoldsEventsLikeTheLegacyPath) {
  DigestSink sink;
  ProbeEvent event;
  event.tool = ToolKind::icmp_ping;
  event.reported_rtt_ms = 10.0;
  event.layers = LayerBreakdown{10.0, 8.0, 6.0, 4.0};
  sink.probe_completed(event);
  event.reported_rtt_ms = 20.0;
  event.layers.reset();  // unstamped (cellular-style) probe
  sink.probe_completed(event);
  event.timed_out = true;
  event.reported_rtt_ms = 0;
  sink.probe_completed(event);

  const auto digests = sink.take_digests();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].tool, ToolKind::icmp_ping);
  EXPECT_EQ(digests[0].probes, 3u);
  EXPECT_EQ(digests[0].lost, 1u);
  EXPECT_EQ(digests[0].reported_rtt_ms.count(), 2u);  // timeouts excluded
  EXPECT_EQ(digests[0].du_ms.count(), 1u);            // only stamped probes
  EXPECT_EQ(sink.take_digests().size(), 0u);          // take() drains
}

/// Records the event stream verbatim, for the delivery-contract assertions.
struct RecordingSink : ResultSink {
  std::vector<ShardInfo>* started;
  std::vector<ProbeEvent>* events;
  std::vector<ShardSummary>* finished;
  void shard_started(const ShardInfo& info) override {
    started->push_back(info);
  }
  void probe_completed(const ProbeEvent& event) override {
    events->push_back(event);
  }
  void shard_finished(const ShardSummary& summary) override {
    finished->push_back(summary);
  }
};

TEST(CampaignSinks, DeliverEventsInCanonicalOrder) {
  // A 2-phone shard through the real engine: the custom sink must see
  // shard_started, then phone-major probe events in schedule order, then
  // shard_finished with counters matching the campaign report. The lossy
  // input completes probes out of schedule order (a 1 s timeout outlives
  // the answers to the probes sent 100 ms apart after it).
  struct Input {
    double loss;
    int probes;
  };
  for (const Input input : {Input{0.0, 5}, Input{0.3, 20}}) {
    SCOPED_TRACE(input.loss);
    testbed::ScenarioSpec scenario;
    scenario.phones.assign(2, testbed::PhoneSpec{});
    scenario.emulated_rtt = 10_ms;
    scenario.netem_loss = input.loss;
    testbed::CampaignSpec spec;
    spec.scenarios = {scenario};
    spec.probes_per_phone = input.probes;
    spec.probe_interval = 100_ms;
    spec.probe_timeout = 1_s;

    std::vector<ShardInfo> started;
    std::vector<ProbeEvent> events;
    std::vector<ShardSummary> finished;
    spec.sinks = [&](const ShardInfo&) {
      std::vector<std::unique_ptr<ResultSink>> sinks;
      auto sink = std::make_unique<RecordingSink>();
      sink->started = &started;
      sink->events = &events;
      sink->finished = &finished;
      sinks.push_back(std::move(sink));
      return sinks;
    };

    const testbed::CampaignReport report = testbed::Campaign(spec).run(1);
    ASSERT_EQ(started.size(), 1u);
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(started[0].scenario_index, 0u);
    EXPECT_EQ(started[0].phone_count, 2u);
    EXPECT_EQ(started[0].shard_seed,
              testbed::Campaign::shard_seed(spec.seed, 0));

    const auto probes = static_cast<std::size_t>(input.probes);
    ASSERT_EQ(events.size(), 2 * probes);
    bool answered_after_timeout = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].phone_index, i / probes) << "event " << i;
      EXPECT_EQ(events[i].probe_index, static_cast<int>(i % probes));
      EXPECT_EQ(events[i].tool, ToolKind::icmp_ping);
      if (i % probes != 0 && events[i - 1].timed_out &&
          !events[i].timed_out) {
        answered_after_timeout = true;
      }
    }
    EXPECT_EQ(answered_after_timeout, input.loss > 0);
    EXPECT_EQ(finished[0].probes_sent, report.total_probes());
    EXPECT_EQ(finished[0].probes_lost, report.total_lost());
    EXPECT_EQ(finished[0].frames_on_air, report.total_frames());
    EXPECT_EQ(finished[0].events_fired, report.total_events());
    EXPECT_EQ(finished[0].sim_seconds, report.total_sim_seconds());

    // The report's digests fold exactly this event stream.
    stats::MergingDigest event_rtts;
    for (const ProbeEvent& event : events) {
      if (!event.timed_out) event_rtts.add(event.reported_rtt_ms);
    }
    std::string expected, folded;
    stats::append_digest(expected, event_rtts);
    stats::append_digest(folded, report.rtt_digest());
    EXPECT_EQ(folded, expected);
  }
}

TEST(JsonlExport, WritesOneRecordPerProbe) {
  TempFile file("jsonl_export");
  testbed::ScenarioGrid grid;
  grid.emulated_rtts = {10_ms};
  grid.workloads = {testbed::WorkloadSpec{ToolKind::icmp_ping},
                    testbed::WorkloadSpec{ToolKind::httping}};
  testbed::CampaignSpec spec;
  spec.scenarios = grid.expand();
  spec.probes_per_phone = 4;
  spec.probe_interval = 100_ms;
  auto writer = std::make_shared<JsonlWriter>(file.path);
  spec.sinks = jsonl_sink_factory(writer);
  const testbed::CampaignReport report = testbed::Campaign(spec).run(2);

  std::ifstream in(file.path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  std::size_t httping_lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"scenario\":"), std::string::npos);
    EXPECT_NE(line.find("\"tool\":\""), std::string::npos);
    EXPECT_NE(line.find("\"rtt_ms\":"), std::string::npos);
    if (line.find("\"tool\":\"httping\"") != std::string::npos) {
      ++httping_lines;
    }
  }
  EXPECT_EQ(lines, report.total_probes());
  EXPECT_EQ(httping_lines, 4u);
}

}  // namespace
}  // namespace acute::report
