// Passive wireless sniffer (§2.2 uses three, placed 0.5 m from the phone).
//
// Sees every frame on the medium, including frames a dozing station cannot
// hear, and timestamps each one on its own (noisy) radiotap clock. It keeps
// no capture log: each capture goes to the attached CaptureObserver, if any,
// and is then gone. The testbed does not derive t_n or dn from sniffers —
// dn comes from the channel's `LayerStamps::air` stamp; the sniffer is the
// vantage point of capture-point estimators (passive::PpingEstimator).
#pragma once

#include <string>
#include <utility>

#include "passive/observer.hpp"
#include "sim/random.hpp"
#include "wifi/channel.hpp"

namespace acute::wifi {

class Sniffer : public MediumObserver {
 public:
  /// A sniffer binds nothing; reset() initializes it.
  Sniffer() = default;
  Sniffer(const std::string& name, sim::Rng rng,
          sim::Duration timestamp_noise = sim::Duration{}) {
    reset(name, std::move(rng), timestamp_noise);
  }

  /// Initializes the per-scenario state. `timestamp_noise` models radiotap
  /// clock error: each capture time is perturbed by U(-noise, +noise).
  /// Detaches the capture observer.
  void reset(const std::string& name, sim::Rng rng,
             sim::Duration timestamp_noise);

  /// Timestamps the frame, drawing its noise whether or not an observer is
  /// attached, and forwards it to the attached observer, if any.
  void on_frame(const Frame& frame) override;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Forwards every capture — the packet by reference, plus the sniffer's
  /// (possibly noise-perturbed) capture timestamp — to `observer`: the
  /// attachment point of passive capture estimators
  /// (passive::PpingEstimator). One observer per sniffer; nullptr detaches.
  /// reset() detaches, so shard-context reuse must re-attach per shard.
  void attach_capture_observer(passive::CaptureObserver* observer) {
    observer_ = observer;
  }

 private:
  std::string name_;
  sim::Rng rng_{0};
  sim::Duration noise_;
  passive::CaptureObserver* observer_ = nullptr;
};

}  // namespace acute::wifi
