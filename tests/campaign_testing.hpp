// Shared helpers of the campaign tests.
//
// A campaign keeps only merged digests; per-probe values reach a caller
// through CampaignSpec::sinks. SampleRecorder is that caller for tests that
// pin exact per-probe values: it records every shard's event stream, in
// canonical order, keyed by scenario index. digest_dump() is the exact
// merged-result comparison: testbed::write_report_digests writes every
// double as its IEEE-754 bit pattern, so equal dumps mean equal bits.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "report/sink.hpp"
#include "testbed/campaign.hpp"

namespace acute::testing {

/// One shard's recorded stream; every value in milliseconds.
struct RecordedShard {
  report::ShardSummary summary;
  /// Reported RTTs of the successful active probes.
  std::vector<double> rtt_ms;
  /// Fig. 1 decomposition of the fully-stamped active probes.
  std::vector<double> du_ms, dk_ms, dv_ms, dn_ms;
  /// Passive vantage samples.
  std::vector<double> sniffer_rtt_ms, app_rtt_ms;
};

class SampleRecorder {
 public:
  /// The factory to plug into CampaignSpec::sinks; the recorder must
  /// outlive every shard it records. Thread-safe.
  report::SinkFactory sinks() {
    return [this](const report::ShardInfo&) {
      std::vector<std::unique_ptr<report::ResultSink>> sinks;
      sinks.push_back(std::make_unique<Sink>(*this));
      return sinks;
    };
  }

  /// Finished shards by scenario index.
  [[nodiscard]] const std::map<std::size_t, RecordedShard>& shards() const {
    return shards_;
  }
  [[nodiscard]] const RecordedShard& at(std::size_t index) const {
    return shards_.at(index);
  }

  /// `field` concatenated across shards in scenario order.
  [[nodiscard]] std::vector<double> merged(
      std::vector<double> RecordedShard::*field) const {
    std::vector<double> all;
    for (const auto& [index, shard] : shards_) {
      all.insert(all.end(), (shard.*field).begin(), (shard.*field).end());
    }
    return all;
  }

 private:
  class Sink : public report::ResultSink {
   public:
    explicit Sink(SampleRecorder& owner) : owner_(owner) {}

    void probe_completed(const report::ProbeEvent& event) override {
      if (event.vantage == report::Vantage::passive_sniffer) {
        shard_.sniffer_rtt_ms.push_back(event.reported_rtt_ms);
      } else if (event.vantage == report::Vantage::passive_app) {
        shard_.app_rtt_ms.push_back(event.reported_rtt_ms);
      } else if (!event.timed_out) {
        shard_.rtt_ms.push_back(event.reported_rtt_ms);
        if (event.layers.has_value()) {
          shard_.du_ms.push_back(event.layers->du_ms);
          shard_.dk_ms.push_back(event.layers->dk_ms);
          shard_.dv_ms.push_back(event.layers->dv_ms);
          shard_.dn_ms.push_back(event.layers->dn_ms);
        }
      }
    }

    void shard_finished(const report::ShardSummary& summary) override {
      shard_.summary = summary;
      const std::lock_guard<std::mutex> lock(owner_.mu_);
      owner_.shards_[summary.info.scenario_index] = std::move(shard_);
    }

   private:
    SampleRecorder& owner_;
    RecordedShard shard_;
  };

  std::mutex mu_;
  std::map<std::size_t, RecordedShard> shards_;
};

/// A checkpoint file for the one-pass restore's equivalence tests, built
/// from the canonical lines of an uninterrupted run.
struct RestoreCase {
  std::string name;
  std::string bytes;
  /// Distinct complete records in `bytes`: what restored() reports.
  std::size_t restored = 0;
  /// A complete record in `bytes` is malformed: the restore must throw.
  bool malformed = false;
};

/// The restore shapes around the ledger's folded prefix, from an
/// uninterrupted run's canonical checkpoint of at least 7 shards (one
/// '\n'-terminated line each): (a) canonical, with a prefix, a hole and a
/// restored tail; (b) a duplicate of a prefix index appended after the
/// prefix, whose first copy differs; (c) a torn final fragment; (d)
/// out-of-order records. Resuming from any of them must reproduce the
/// uninterrupted run bit for bit. The last case, (e), is malformed (see
/// there).
inline std::vector<RestoreCase> restore_cases(const std::string& canonical) {
  std::vector<std::string> lines;
  std::istringstream in(canonical);
  for (std::string line; std::getline(in, line);) lines.push_back(line + '\n');
  const auto join = [&lines](std::initializer_list<std::size_t> indices) {
    std::string bytes;
    for (const std::size_t index : indices) bytes += lines.at(index);
    return bytes;
  };
  // Line 1 with its frames counter off by one: still a canonical record
  // of shard 1, but one whose fold shows in the totals.
  std::string stale = lines.at(1);
  std::size_t frames = 0;
  for (int token = 0; token < 7; ++token) frames = stale.find(' ', frames) + 1;
  const std::size_t frames_end = stale.find(' ', frames);
  stale.replace(frames, frames_end - frames,
                std::to_string(std::stoull(stale.substr(frames)) + 1));
  const std::string& torn = lines.at(6);
  return {
      {"canonical_prefix_hole_tail", join({0, 1, 2, 5, 6}), 5},
      // The stale copy comes first, so only last-wins (which the restore
      // must follow, not the first copy it folded) gives the right merge.
      {"duplicate_of_a_prefix_index",
       join({0}) + stale + join({2, 5, 1}), 4},
      {"torn_final_fragment",
       join({0, 1, 2, 5}) + torn.substr(0, torn.size() / 2), 4},
      // 2 arrives ahead of its turn, 1 in its turn: the prefix stops at 2.
      {"out_of_order_records", join({0, 2, 1, 5, 3}), 5},
      // Not a restore: a complete but malformed record after the prefix,
      // then a torn fragment so the file would otherwise be rewritten.
      // Resuming must throw before any byte moves.
      {"malformed_after_prefix",
       join({0, 1, 2}) + "ckpt2 3 not-a-seed 1 end\n" +
           torn.substr(0, torn.size() / 2),
       0, /*malformed=*/true},
  };
}

/// testbed::write_report_digests as a string.
inline std::string digest_dump(const testbed::CampaignReport& report) {
  std::ostringstream out;
  testbed::write_report_digests(out, report);
  return out.str();
}

}  // namespace acute::testing
