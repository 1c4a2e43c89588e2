// AcuteMon — the paper's contribution (§4).
//
// Two cooperating processes (Fig. 6):
//  * Background-traffic thread (BT): sends one warm-up packet, waits
//    dpre = 20 ms for the SDIO bus promotion to complete, then emits a tiny
//    background packet every db = 20 ms for the duration of the measurement.
//    With Tprom < dpre < min(Tis, Tip) and db < min(Tis, Tip), neither the
//    bus-sleep nor the PSM demotion timer can ever fire. Warm-up and
//    background packets carry TTL = 1 so the first-hop router absorbs them:
//    no response traffic, no load beyond the gateway.
//  * Measurement thread (MT): a native-C process that sends K probes
//    (TCP SYN / SYN-ACK by default, or an HTTP exchange) back to back, each
//    waiting for the previous response.
#pragma once

#include <cstdint>

#include "tools/tool.hpp"

namespace acute::core {

class AcuteMon final : public tools::MeasurementTool {
 public:
  enum class ProbeMethod { tcp_connect, http };

  struct Options {
    /// Warm-up lead time dpre. Must satisfy Tprom < dpre < min(Tis, Tip);
    /// the paper's empirical value is 20 ms.
    sim::Duration warmup_lead = sim::Duration::millis(20);
    /// Background inter-packet interval db (must be < min(Tis, Tip)).
    sim::Duration background_interval = sim::Duration::millis(20);
    /// Fig. 9 ablation: run without the background thread.
    bool background_enabled = true;
    ProbeMethod method = ProbeMethod::tcp_connect;
  };

  AcuteMon(phone::Smartphone& phone, Config config, Options options);
  /// Paper-default options (dpre = db = 20 ms, TCP connect probes).
  AcuteMon(phone::Smartphone& phone, Config config);

  [[nodiscard]] std::string name() const override { return "AcuteMon"; }

  /// Initializes the per-run state, the options kept: adapts the schedule,
  /// allocates the probe flow id and then the background one, and clears
  /// the BT state.
  void reinitialize(Config config) override;
  [[nodiscard]] const Options& options() const { return options_; }

  /// Background packets emitted so far (≈ K * nRTT / db; §4.1's example:
  /// K=5 probes on a 100 ms path cost only ~25 packets to the gateway).
  [[nodiscard]] std::uint64_t background_packets_sent() const {
    return background_sent_;
  }
  [[nodiscard]] bool warmup_sent() const { return warmup_sent_; }

 protected:
  /// The two-thread launch protocol, behind start()'s guard.
  void launch(DoneFn done) override;

  void send_probe(int index) override;
  std::optional<double> on_probe_response(int index,
                                          const net::Packet& response,
                                          double raw_rtt_ms) override;

 private:
  void send_warmup();
  void send_background();
  net::Packet make_keepalive(net::PacketType type) const;

  Options options_;
  std::uint32_t background_flow_ = 0;
  sim::PeriodicTimer background_timer_;
  std::uint64_t background_sent_ = 0;
  bool warmup_sent_ = false;
};

}  // namespace acute::core
