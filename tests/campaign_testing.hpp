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

/// testbed::write_report_digests as a string.
inline std::string digest_dump(const testbed::CampaignReport& report) {
  std::ostringstream out;
  testbed::write_report_digests(out, report);
  return out.str();
}

}  // namespace acute::testing
