#include "testbed/testbed.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::testbed {

using net::Packet;
using sim::Duration;
using sim::expects;

namespace {
wifi::Station::Config load_gen_station_config(net::NodeId id,
                                              net::NodeId ap_id) {
  wifi::Station::Config config;
  config.id = id;
  config.ap = ap_id;
  config.psm_enabled = false;  // desktop WNIC: no power save
  config.associated_listen_interval = 1;
  return config;
}

std::string phone_label(const PhoneSpec& spec, std::size_t index) {
  if (!spec.label.empty()) return spec.label;
  if (index == 0) return "phone";
  return "phone-" + std::to_string(index);
}

std::string sniffer_label(std::size_t index) {
  // The paper's three sniffers keep their historical names (and therefore
  // their rng streams); bigger arrays extend numerically.
  static constexpr const char* kNamed[] = {"sniffer-A", "sniffer-B",
                                           "sniffer-C"};
  if (index < 3) return kNamed[index];
  return "sniffer-" + std::to_string(index);
}
}  // namespace

void WirelessHost::reset(sim::Rng rng, net::NodeId id, net::NodeId ap_id) {
  rng_ = std::move(rng);
  id_ = id;
  station_.reset(rng_.fork("station"), load_gen_station_config(id, ap_id));
}

void WirelessHost::transmit(Packet&& packet) {
  packet.src = id_;
  // Desktop host stack: tens of microseconds, no phone-style quirks.
  const Duration stack = Duration::micros(rng_.uniform(20.0, 60.0));
  sim_->schedule_in(stack, [this, pkt = std::move(packet)]() mutable {
    station_.send(std::move(pkt));
  });
}

void CellularGateway::attach_link(net::Link& link) {
  expects(link_ == nullptr, "CellularGateway::attach_link called twice");
  link_ = &link;
}

void CellularGateway::attach_phone(phone::Smartphone& phone) {
  expects(phone.radio_kind() == phone::RadioKind::cellular,
          "CellularGateway::attach_phone requires a cellular phone");
  for (const auto& [id, ptr] : phones_) {
    expects(id != phone.id(),
            "CellularGateway::attach_phone: duplicate phone id");
  }
  phones_.emplace_back(phone.id(), &phone);
  phone.cellular_radio().set_egress(
      [this](Packet&& pkt) { uplink(std::move(pkt)); });
}

void CellularGateway::uplink(Packet&& packet) {
  // First-hop router: TTL=1 system chatter dies here, like at the WiFi AP.
  if (packet.ttl <= 1) {
    ++ttl_drops_;
    return;
  }
  packet.ttl -= 1;
  expects(link_ != nullptr, "CellularGateway has no core link attached");
  ++uplink_;
  link_->send(id_, std::move(packet));
}

void CellularGateway::receive(Packet&& packet, net::Link* /*ingress*/) {
  phone::Smartphone* target = nullptr;
  for (const auto& [id, ptr] : phones_) {
    if (id == packet.dst) {
      target = ptr;
      break;
    }
  }
  if (target == nullptr) return;  // not one of ours (switch flooding)
  if (packet.ttl <= 1) {
    ++ttl_drops_;
    return;
  }
  packet.ttl -= 1;
  ++downlink_;
  // Enter the phone's stack at the bottom: the RRC radio pays the downlink
  // state latency before the packet ascends.
  target->pipeline().inject(std::move(packet));
}

ScenarioSpec& ScenarioSpec::assign_workloads(
    const std::vector<WorkloadSpec>& mix) {
  expects(!mix.empty(), "assign_workloads requires a non-empty workload mix");
  expects(!phones.empty(), "assign_workloads requires at least one phone");
  for (std::size_t i = 0; i < phones.size(); ++i) {
    phones[i].workload = mix[i % mix.size()];
  }
  return *this;
}

std::size_t ScenarioSpec::count_radio(phone::RadioKind kind) const {
  std::size_t count = 0;
  for (const PhoneSpec& phone : phones) {
    if (phone.radio == kind) ++count;
  }
  return count;
}

Testbed::Testbed(ScenarioSpec spec)
    : owned_sim_(std::make_unique<sim::Simulator>()),
      sim_(owned_sim_.get()),
      spec_(std::move(spec)) {
  build_graph();
}

Testbed::Testbed(ScenarioSpec spec, sim::Simulator& sim)
    : sim_(&sim), spec_(std::move(spec)) {
  build_graph();
}

void Testbed::rebuild(const ScenarioSpec& spec) {
  sim_->reset();
  // Copy-assign, never move-assign: the phones vector (and the labels and
  // profile strings inside) copy into the buffers the previous scenario
  // left behind, so a shape-stable rebuild touches the heap zero times.
  spec_ = spec;
  build_graph();
}

void Testbed::build_graph() {
  expects(!spec_.phones.empty(), "ScenarioSpec requires at least one phone");
  rng_ = sim::Rng(spec_.seed);
  iperf_ready_ = false;
  cross_running_ = false;

  // A node is built (bindings only) when its slot is empty; every node
  // then takes its one reset() path, in a fixed order. Order matters twice
  // over: rng fork tags must pair with the same components, and the events
  // resets schedule (doze timers, bus watchdogs, system chatter, beacons)
  // must claim the same event-queue sequence numbers on every build — that
  // is what makes a reused testbed bit-identical to a fresh one.
  if (!channel_) channel_ = std::make_unique<wifi::Channel>(*sim_);
  channel_->reset(rng_.fork("channel"), spec_.congested_phy
                                            ? wifi::phy_802_11g_mixed()
                                            : wifi::phy_802_11g());

  wifi::AccessPoint::Config ap_config;
  ap_config.id = kApId;
  ap_config.send_ttl_exceeded = spec_.send_ttl_exceeded;
  if (!ap_) ap_ = std::make_unique<wifi::AccessPoint>(*sim_, *channel_);
  ap_->reset(rng_.fork("ap"), ap_config);

  if (!switch_) switch_ = std::make_unique<net::Switch>();
  switch_->reset(kSwitchId);
  if (!server_) server_ = std::make_unique<net::EchoServer>(*sim_);
  server_->reset(rng_.fork("server"), kServerId);
  if (!load_sink_) load_sink_ = std::make_unique<net::UdpSink>(*sim_);
  load_sink_->reset(kLoadSinkId);

  // Gigabit wired fabric with ~5 us propagation per hop.
  const Duration wire_prop = Duration::micros(5.0);
  const double gigabit = 1e9;
  for (auto* link :
       {&ap_switch_link_, &switch_server_link_, &switch_sink_link_}) {
    if (!*link) *link = std::make_unique<net::Link>(*sim_);
  }
  ap_switch_link_->reset(*ap_, *switch_, wire_prop, gigabit);
  switch_server_link_->reset(*switch_, *server_, wire_prop, gigabit);
  switch_sink_link_->reset(*switch_, *load_sink_, wire_prop, gigabit);
  ap_->attach_wired(*ap_switch_link_);
  switch_->attach_port(*ap_switch_link_);
  switch_->attach_port(*switch_server_link_);
  switch_->attach_port(*switch_sink_link_);
  // The iPerf sink never sends, so the switch would never learn its port
  // and would flood all cross traffic onto the echo server's link too. The
  // paper's load server is a host of its own (Fig. 2): pin its port.
  switch_->pin(kLoadSinkId, *switch_sink_link_);
  server_->attach_link(*switch_server_link_);

  server_->netem().set_delay(spec_.emulated_rtt);
  server_->netem().set_jitter(spec_.netem_jitter);
  server_->netem().set_loss(spec_.netem_loss);
  server_->netem().set_prevent_reorder(!spec_.netem_reorder);

  // Cellular side (only when the scenario mixes in rrc-radio phones): the
  // gateway reaches the same switch over a link whose one-way propagation
  // models half the core-network RTT.
  if (spec_.count_radio(phone::RadioKind::cellular) > 0) {
    expects(!spec_.cellular_core_rtt.is_negative(),
            "ScenarioSpec cellular core RTT must be non-negative");
    if (!gateway_) gateway_ = std::make_unique<CellularGateway>();
    gateway_->reset(kCellGatewayId);
    if (!gateway_link_) gateway_link_ = std::make_unique<net::Link>(*sim_);
    gateway_link_->reset(*gateway_, *switch_, spec_.cellular_core_rtt / 2,
                         gigabit);
    switch_->attach_port(*gateway_link_);
    gateway_->attach_link(*gateway_link_);
  } else {
    gateway_link_.reset();
    gateway_.reset();
  }

  // Wireless side: the phones under test + the load generator, all
  // contending on the one channel. Rng streams are forked by label, so a
  // duplicate label would silently give two "independent" handsets
  // byte-identical latency draws — reject it up front.
  static constexpr const char* kReservedTags[] = {
      "channel", "ap",        "server",    "loadgen",  "iperf",
      "tbtt",    "sniffer-A", "sniffer-B", "sniffer-C"};
  used_labels_.clear();
  phones_.resize(spec_.phones.size());
  for (std::size_t i = 0; i < spec_.phones.size(); ++i) {
    const PhoneSpec& phone_spec = spec_.phones[i];
    const std::string label = phone_label(phone_spec, i);
    for (const char* reserved : kReservedTags) {
      expects(std::strcmp(label.c_str(), reserved) != 0,
              "ScenarioSpec phone labels must not reuse an infrastructure "
              "rng tag");
    }
    expects(std::find(used_labels_.begin(), used_labels_.end(), label) ==
                used_labels_.end(),
            "ScenarioSpec phone labels must be unique");
    used_labels_.push_back(label);
    const net::NodeId id = phone_id(i);
    const bool cellular = phone_spec.radio == phone::RadioKind::cellular;
    std::unique_ptr<phone::Smartphone>& phone = phones_[i];
    if (!phone || phone->radio_kind() != phone_spec.radio) {
      phone = cellular ? std::make_unique<phone::Smartphone>(*sim_)
                       : std::make_unique<phone::Smartphone>(*sim_, *channel_);
    }
    if (cellular) {
      phone->reset(rng_.fork(label), phone_spec.profile, id, kCellGatewayId,
                   phone_spec.rrc);
      gateway_->attach_phone(*phone);
    } else {
      phone->reset(rng_.fork(label), phone_spec.profile, id, kApId);
      ap_->associate(id, phone_spec.profile.associated_listen_interval);
    }
  }
  if (!load_gen_) load_gen_ = std::make_unique<WirelessHost>(*sim_, *channel_);
  load_gen_->reset(rng_.fork("loadgen"), kLoadGenId, kApId);
  ap_->associate(kLoadGenId, 1);

  // The iPerf generator is built lazily in ensure_iperf(): its flows draw
  // from their rng streams only on start(), so deferring construction to
  // the first start_cross_traffic() is output-identical and lets the many
  // campaign shards that never congest the WLAN skip it entirely.

  // Sniffers within 0.5 m of the phones (§2.2): they all see every frame;
  // each has an independent timestamp-noise stream.
  sniffers_.resize(spec_.sniffer_count);
  for (std::size_t i = 0; i < spec_.sniffer_count; ++i) {
    const std::string name = sniffer_label(i);
    if (!sniffers_[i]) sniffers_[i] = std::make_unique<wifi::Sniffer>();
    sniffers_[i]->reset(name, rng_.fork(name), spec_.sniffer_noise);
    channel_->attach_observer(*sniffers_[i]);
  }

  // Beacons start at a random phase relative to the experiment schedule.
  ap_->start_beacons(
      rng_.fork("tbtt").uniform_duration(Duration{}, wifi::beacon_interval()));
}

void Testbed::ensure_iperf() {
  if (iperf_ready_) return;
  if (!iperf_) {
    iperf_ = std::make_unique<net::IperfLoadGenerator>(
        *sim_, [this](Packet&& pkt) { load_gen_->transmit(std::move(pkt)); });
  }
  iperf_->reset(rng_.fork("iperf"), kLoadGenId, kLoadSinkId,
                spec_.cross_connections, spec_.cross_flow_mbps);
  iperf_ready_ = true;
}

void Testbed::start_cross_traffic() {
  if (cross_running_) return;
  cross_running_ = true;
  ensure_iperf();
  load_sink_->reset_window();
  iperf_->start();
}

void Testbed::stop_cross_traffic() {
  if (!cross_running_) return;
  cross_running_ = false;
  iperf_->stop();
}

bool Testbed::cross_traffic_running() const { return cross_running_; }

double Testbed::cross_traffic_throughput_mbps() const {
  return load_sink_->throughput_mbps(load_sink_->window_start());
}

void Testbed::settle(Duration span) { sim_->run_for(span); }

void Testbed::run_until_finished(tools::MeasurementTool& tool,
                                 Duration max_sim_time) {
  run_until_all_finished({&tool}, max_sim_time);
}

void Testbed::run_until_all_finished(
    const std::vector<tools::MeasurementTool*>& tools, Duration max_sim_time) {
  const auto all_finished = [&tools] {
    for (const tools::MeasurementTool* tool : tools) {
      if (!tool->finished()) return false;
    }
    return true;
  };
  const sim::TimePoint deadline = sim_->now() + max_sim_time;
  while (!all_finished() && sim_->now() < deadline) {
    sim_->run_for(Duration::millis(50));
  }
  expects(all_finished(),
          "Testbed::run_until_all_finished hit the simulated-time guard");
}

std::vector<core::LayerSample> Testbed::layer_samples(
    const tools::ToolRun& run) const {
  std::vector<core::LayerSample> samples;
  samples.reserve(run.probes.size());
  for (const tools::ProbeRecord& record : run.probes) {
    if (record.timed_out || !record.response.has_value()) continue;
    const auto sample = core::LayerSample::from_response(
        *record.response, record.reported_rtt_ms);
    if (sample.has_value()) samples.push_back(*sample);
  }
  return samples;
}

}  // namespace acute::testbed
