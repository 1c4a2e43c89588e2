#include "tools/tool.hpp"

#include <algorithm>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::tools {

using net::Packet;
using sim::Duration;
using sim::expects;
using sim::TimePoint;

std::vector<double> ToolRun::reported_rtts_ms() const {
  std::vector<double> rtts;
  rtts.reserve(probes.size());
  for (const ProbeRecord& record : probes) {
    if (!record.timed_out) rtts.push_back(record.reported_rtt_ms);
  }
  return rtts;
}

std::size_t ToolRun::loss_count() const {
  std::size_t count = 0;
  for (const ProbeRecord& record : probes) {
    if (record.timed_out) ++count;
  }
  return count;
}

std::size_t ToolRun::success_count() const {
  return probes.size() - loss_count();
}

MeasurementTool::MeasurementTool(phone::Smartphone& phone)
    : phone_(&phone), sim_(&phone.simulator()) {}

MeasurementTool::~MeasurementTool() { phone_->unregister_flow(flow_id_); }

void MeasurementTool::reinitialize(Config config) {
  expects(config.probe_count > 0, "MeasurementTool requires probe_count > 0");
  expects(config.timeout > Duration{},
          "MeasurementTool requires a positive timeout");
  // No-op on the first call (flow 0 is never registered) and when the
  // last run finished.
  phone_->unregister_flow(flow_id_);
  config_ = config;
  flow_id_ = phone_->allocate_flow_id();
  outstanding_.clear();
  launched_ = 0;
  completed_ = 0;
  started_ = false;
  finished_ = false;
  run_.tool_name.clear();
  run_.probes.clear();
  done_ = nullptr;
}

void MeasurementTool::start(DoneFn done) {
  expects(!started_, "MeasurementTool::start may only be called once");
  started_ = true;
  launch(std::move(done));
}

void MeasurementTool::launch(DoneFn done) { begin_probes(std::move(done)); }

void MeasurementTool::begin_probes(DoneFn done) {
  done_ = std::move(done);
  run_.tool_name = name();
  phone_->register_flow(
      flow_id_,
      [this](Packet&& response) { handle_response(std::move(response)); },
      exec_mode());

  if (config_.sequential) {
    launch_probe(0);
  } else {
    // Periodic schedule: probe i leaves at i * interval, come what may.
    for (int i = 0; i < config_.probe_count; ++i) {
      sim_->schedule_in(config_.interval * i, [this, i] { launch_probe(i); });
    }
  }
}

void MeasurementTool::launch_probe(int index) {
  ++launched_;
  send_probe(index);
}

Packet MeasurementTool::new_probe(int index, net::PacketType type,
                                  net::Protocol protocol,
                                  std::uint32_t size_bytes) {
  Packet probe = Packet::make(type, protocol, phone_->id(), config_.target,
                              size_bytes);
  probe.probe_id = Packet::allocate_id();
  probe.flow_id = flow_id_;
  if (protocol == net::Protocol::tcp) {
    // TCP timestamp option (RFC 7323). Microsecond granularity instead of
    // the classic milliseconds so back-to-back probes never share a TSval
    // (value-matching passive estimators would alias them); +1 keeps the
    // "option absent" sentinel 0 out of the value space. Wraps at ~71
    // minutes of sim time, far beyond any probe's lifetime in flight.
    probe.tcp_ts.tsval = static_cast<std::uint32_t>(
        (sim_->now() - TimePoint::epoch()).count_nanos() / 1000 + 1);
  }

  const std::uint64_t probe_id = probe.probe_id;
  outstanding_.push_back(Outstanding{
      probe_id, index, sim_->now(),
      sim_->schedule_in(config_.timeout,
                        [this, probe_id] { handle_timeout(probe_id); })});
  return probe;
}

void MeasurementTool::send_packet(Packet&& packet) {
  phone_->send(std::move(packet), exec_mode());
}

std::optional<double> MeasurementTool::on_probe_response(
    int /*index*/, const Packet& /*response*/, double raw_rtt_ms) {
  return raw_rtt_ms;
}

std::vector<MeasurementTool::Outstanding>::iterator
MeasurementTool::find_outstanding(std::uint64_t probe_id) {
  return std::find_if(outstanding_.begin(), outstanding_.end(),
                      [probe_id](const Outstanding& entry) {
                        return entry.probe_id == probe_id;
                      });
}

void MeasurementTool::handle_response(Packet&& response) {
  const auto it = find_outstanding(response.probe_id);
  if (it == outstanding_.end()) return;  // late (already timed out) or alien
  Outstanding entry = std::move(*it);
  entry.timeout.cancel();
  outstanding_.erase(it);

  const double raw_rtt_ms = (sim_->now() - entry.sent_at).to_ms();
  const std::optional<double> reported =
      on_probe_response(entry.index, response, raw_rtt_ms);
  if (!reported.has_value()) return;  // multi-packet exchange continues

  ProbeRecord record;
  record.index = entry.index;
  record.reported_rtt_ms = *reported;
  record.response = std::move(response);
  complete_probe(entry.index, std::move(record));
}

void MeasurementTool::handle_timeout(std::uint64_t probe_id) {
  const auto it = find_outstanding(probe_id);
  if (it == outstanding_.end()) return;
  const int index = it->index;
  outstanding_.erase(it);
  ProbeRecord record;
  record.index = index;
  record.timed_out = true;
  complete_probe(index, std::move(record));
}

void MeasurementTool::complete_probe(int index, ProbeRecord record) {
  run_.probes.push_back(std::move(record));
  ++completed_;
  if (config_.sequential && launched_ < config_.probe_count) {
    const int next = index + 1;
    if (config_.interval.is_zero()) {
      launch_probe(next);
    } else {
      sim_->schedule_in(config_.interval, [this, next] { launch_probe(next); });
    }
  }
  maybe_finish();
}

void MeasurementTool::maybe_finish() {
  if (finished_ || completed_ < config_.probe_count) return;
  finished_ = true;
  phone_->unregister_flow(flow_id_);
  std::sort(run_.probes.begin(), run_.probes.end(),
            [](const ProbeRecord& a, const ProbeRecord& b) {
              return a.index < b.index;
            });
  if (done_) done_(run_);
}

}  // namespace acute::tools
