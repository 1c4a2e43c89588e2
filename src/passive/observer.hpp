// Passive measurement vantage points — the observer interfaces.
//
// The paper's four tools are all *active* probers: they inject traffic and
// time their own exchanges. Passive estimators answer the same RTT question
// from traffic that is already there. Two vantage points exist in the
// literature the paper builds on:
//
//   * capture point (pping / DlyLoc): a sniffer near the link matches TCP
//     timestamp values (TSval) against their echoes (TSecr) and reads the
//     RTT off the capture clock — zero injected traffic;
//   * per-app (MopEye): the measurement sits inside the phone, at the
//     socket boundary, and attributes each passively observed RTT to the
//     owning app flow.
//
// This header defines only the interfaces (plus the campaign's vantage
// axis enum), so wifi:: and phone:: can forward observations without
// depending on the estimators: wifi::Sniffer forwards each capture to an
// attached CaptureObserver, phone::ExecEnvLayer forwards each app-boundary
// send/delivery to an attached FlowTap. Concrete estimators live in
// pping.hpp (PpingEstimator) and per_app.hpp (PerAppMonitor).
//
// Both callbacks take the packet by const reference — observation must not
// copy (Packet::op_counters() pins this) — and must not allocate in steady
// state (the observe path runs once per frame of a campaign shard).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace acute::passive {

/// The campaign grid's passive-measurement axis: which passive vantage
/// points observe a workload's flow alongside the active tool.
enum class PassiveVantage : std::uint8_t {
  none,      ///< active tool only (the pre-passive default)
  sniffer,   ///< pping-style capture-point estimator at the sniffer array
  exec_env,  ///< MopEye-style per-app monitor at the exec-env boundary
  both,      ///< both of the above on the same flow
};

/// Machine-stable kebab-case id ("none", "sniffer", "exec-env", "both") —
/// the spelling exports write, round-tripped by parse_passive_vantage().
[[nodiscard]] const char* to_string(PassiveVantage vantage);
[[nodiscard]] std::optional<PassiveVantage> parse_passive_vantage(
    std::string_view name);

[[nodiscard]] constexpr bool wants_sniffer(PassiveVantage vantage) {
  return vantage == PassiveVantage::sniffer ||
         vantage == PassiveVantage::both;
}
[[nodiscard]] constexpr bool wants_exec_env(PassiveVantage vantage) {
  return vantage == PassiveVantage::exec_env ||
         vantage == PassiveVantage::both;
}

/// Capture-point observer: wifi::Sniffer forwards every frame it sees —
/// `time` is the sniffer's capture timestamp (frame TX start plus the
/// sniffer's radiotap clock noise), so an estimator inherits exactly the
/// vantage-point error a real capture box would.
class CaptureObserver {
 public:
  virtual ~CaptureObserver() = default;
  virtual void on_capture(const net::Packet& packet,
                          net::NodeId transmitter, net::NodeId receiver,
                          sim::TimePoint time, bool collided) = 0;
};

/// App-boundary observer: phone::ExecEnvLayer forwards each packet an app
/// sends (at the t_u^o stamp instant) and each packet it delivers to a
/// registered flow (at the t_u^i stamp instant).
class FlowTap {
 public:
  virtual ~FlowTap() = default;
  virtual void on_app_send(const net::Packet& packet,
                           sim::TimePoint time) = 0;
  virtual void on_app_deliver(const net::Packet& packet,
                              sim::TimePoint time) = 0;
};

}  // namespace acute::passive
