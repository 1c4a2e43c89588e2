// httping [18], cross-compiled to run natively on the handset (§4.3).
//
// Probe 0 opens a TCP connection (SYN / SYN-ACK) and then issues an HTTP
// request on it; later probes reuse the persistent connection. The reported
// RTT covers the HTTP exchange, which is what httping prints per probe.
#pragma once

#include "tools/tool.hpp"

namespace acute::tools {

class HttPing final : public MeasurementTool {
 public:
  HttPing(phone::Smartphone& phone, Config config)
      : MeasurementTool(phone) {
    reinitialize(config);
  }

  [[nodiscard]] std::string name() const override { return "httping"; }

  void reinitialize(Config config) override {
    MeasurementTool::reinitialize(make_sequential(config));
    connected_ = false;
  }

 protected:
  void send_probe(int index) override;
  std::optional<double> on_probe_response(int index,
                                          const net::Packet& response,
                                          double raw_rtt_ms) override;

 private:
  static Config make_sequential(Config config) {
    config.sequential = true;
    return config;
  }
  bool connected_ = false;
};

}  // namespace acute::tools
