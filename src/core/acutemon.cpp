#include "core/acutemon.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::core {

using net::Packet;
using net::PacketType;
using net::Protocol;
using sim::Duration;
using sim::expects;

namespace {
tools::MeasurementTool::Config sequential(tools::MeasurementTool::Config c) {
  // MT sends each probe as soon as the previous exchange completes.
  c.sequential = true;
  c.interval = Duration{};
  return c;
}
}  // namespace

AcuteMon::AcuteMon(phone::Smartphone& phone, Config config)
    : AcuteMon(phone, config, Options{}) {}

AcuteMon::AcuteMon(phone::Smartphone& phone, Config config, Options options)
    : MeasurementTool(phone),
      options_(options),
      background_timer_(phone.simulator(),
                        [this](std::uint64_t) { send_background(); }) {
  expects(options.warmup_lead > Duration{},
          "AcuteMon warm-up lead must be positive");
  expects(options.background_interval > Duration{},
          "AcuteMon background interval must be positive");
  reinitialize(config);
}

void AcuteMon::reinitialize(Config config) {
  MeasurementTool::reinitialize(sequential(std::move(config)));
  background_timer_.reset(options_.background_interval);
  background_sent_ = 0;
  warmup_sent_ = false;
  background_flow_ = phone().allocate_flow_id();
}

Packet AcuteMon::make_keepalive(PacketType type) const {
  // Warm-up/background packets die at the first-hop router: TTL = 1.
  Packet pkt = Packet::make(type, Protocol::udp,
                            0 /* src set by Smartphone::send */,
                            config().target, net::packet_size::udp_small);
  pkt.ttl = 1;
  pkt.flow_id = background_flow_;
  return pkt;
}

void AcuteMon::send_warmup() {
  warmup_sent_ = true;
  phone().send(make_keepalive(PacketType::udp_warmup),
               phone::ExecMode::native_c);
}

void AcuteMon::send_background() {
  if (finished()) {
    background_timer_.stop();
    return;
  }
  ++background_sent_;
  phone().send(make_keepalive(PacketType::udp_background),
               phone::ExecMode::native_c);
}

void AcuteMon::launch(DoneFn done) {
  // BT: warm-up now; background cadence every db from now on.
  send_warmup();
  if (options_.background_enabled) {
    background_timer_.start(options_.background_interval);
  }
  // MT: first probe after the warm-up lead dpre — begin_probes() arms the
  // base schedule directly (start()'s once-only guard already fired).
  simulator().schedule_in(options_.warmup_lead,
                          [this, done = std::move(done)]() mutable {
                            begin_probes(
                                [this, done = std::move(done)](
                                    const tools::ToolRun& run) {
                                  background_timer_.stop();
                                  if (done) done(run);
                                });
                          });
}

void AcuteMon::send_probe(int index) {
  switch (options_.method) {
    case ProbeMethod::tcp_connect: {
      Packet syn = new_probe(index, PacketType::tcp_syn, Protocol::tcp,
                             net::packet_size::tcp_control);
      send_packet(std::move(syn));
      return;
    }
    case ProbeMethod::http: {
      Packet request = new_probe(index, PacketType::http_request,
                                 Protocol::tcp,
                                 net::packet_size::http_request);
      send_packet(std::move(request));
      return;
    }
  }
}

std::optional<double> AcuteMon::on_probe_response(int /*index*/,
                                                  const Packet& /*response*/,
                                                  double raw_rtt_ms) {
  // Native C measurement process: full-resolution timestamps.
  return raw_rtt_ms;
}

}  // namespace acute::core
