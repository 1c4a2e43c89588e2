// Execution-environment cost model: native C binaries vs the Dalvik VM.
//
// [23] showed that the user-kernel overhead of measurement apps running in
// the DVM can be mitigated by executing a pre-compiled native C program;
// AcuteMon's measurement thread is such a binary (§4.1), while Java-based
// tools (MobiPerf's InetAddress method) pay DVM costs plus occasional GC
// pauses.
//
// ExecEnv is the pure cost model; ExecEnvLayer is the top StackLayer of a
// phone pipeline — it pays the runtime's send/receive overheads, writes the
// t_u stamps, and demultiplexes ascending packets to the apps registered on
// its flows.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/id_alloc.hpp"
#include "net/packet.hpp"
#include "passive/observer.hpp"
#include "phone/profile.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stack/stack_layer.hpp"

namespace acute::phone {

enum class ExecMode { native_c, dalvik };

[[nodiscard]] const char* to_string(ExecMode mode);

class ExecEnv {
 public:
  /// The cost model binds nothing; reset() initializes it.
  ExecEnv() = default;
  ExecEnv(sim::Rng rng, const PhoneProfile& profile) {
    reset(std::move(rng), profile);
  }

  /// Initializes the per-scenario state: this rng stream and `profile`'s
  /// costs (the profile must outlive the model).
  void reset(sim::Rng rng, const PhoneProfile& profile);

  /// Latency between the app taking its send timestamp and the packet
  /// entering the kernel (syscall + runtime overhead).
  [[nodiscard]] sim::Duration send_overhead(ExecMode mode);

  /// Latency between socket readiness and the app taking its receive
  /// timestamp (wakeup + runtime overhead; DVM adds rare GC pauses).
  [[nodiscard]] sim::Duration recv_overhead(ExecMode mode);

 private:
  sim::Rng rng_{0};
  const PhoneProfile* profile_ = nullptr;
};

class ExecEnvLayer : public stack::StackLayer {
 public:
  /// Binds the layer to `sim`; reset() initializes it.
  explicit ExecEnvLayer(sim::Simulator& sim) : sim_(&sim) {}
  ExecEnvLayer(sim::Simulator& sim, sim::Rng rng, const PhoneProfile& profile)
      : ExecEnvLayer(sim) {
    reset(std::move(rng), profile);
  }

  /// Initializes the per-scenario state: the cost model, no registered
  /// flows, flow ids restarting from 1, no flow tap. The flow-table
  /// storage stays warm.
  void reset(sim::Rng rng, const PhoneProfile& profile);

  // StackLayer.
  [[nodiscard]] const char* layer_name() const override { return "exec-env"; }
  /// Downward entry with the default (native C) runtime. Apps normally call
  /// send() to choose their runtime explicitly.
  void transmit(net::Packet&& packet) override {
    send(std::move(packet), ExecMode::native_c);
  }
  /// Upward: socket readiness -> runtime receive overhead -> t_u^i stamp ->
  /// the app registered on the packet's flow (dropped if none).
  void deliver(net::Packet&& packet) override;

  /// Sends a packet from an app. Stamps app_send (t_u^o) now; the packet
  /// enters the kernel after the runtime's send overhead.
  void send(net::Packet&& packet, ExecMode mode);

  /// App-level receive callback, demultiplexed by the packet's flow id.
  /// `mode` determines the runtime whose receive overhead the app pays.
  /// The packet is handed over as an rvalue: apps that keep it take it by
  /// value (a move), apps that only read it bind a const reference.
  using AppRxFn = std::function<void(net::Packet&&)>;
  void register_flow(std::uint32_t flow_id, AppRxFn handler,
                     ExecMode mode = ExecMode::native_c);
  void unregister_flow(std::uint32_t flow_id);

  /// Allocates a flow id no other app on this layer uses. Wrap-safe: skips
  /// 0 (the "no app" sentinel) and ids still registered.
  [[nodiscard]] std::uint32_t allocate_flow_id();

  /// Forwards every app-boundary observation to `tap`: each send at its
  /// t_u^o stamp instant, each delivery to a *registered* flow at its t_u^i
  /// stamp instant (packets no app is bound to are invisible here, exactly
  /// as they are to the apps) — the attachment point of MopEye-style
  /// per-app monitors (passive::PerAppMonitor). One tap per layer; nullptr
  /// detaches. reset() detaches, so a reused layer re-attaches per shard.
  void attach_flow_tap(passive::FlowTap* tap) { tap_ = tap; }

  [[nodiscard]] ExecEnv& env() { return env_; }

 private:
  sim::Simulator* sim_;
  ExecEnv env_;
  struct FlowEntry {
    std::uint32_t flow_id = 0;
    AppRxFn handler;
    ExecMode mode = ExecMode::native_c;
  };
  [[nodiscard]] FlowEntry* find_flow(std::uint32_t flow_id);
  // A phone runs a handful of concurrent flows, so a flat vector beats a
  // node-based map and (un)registering allocates nothing in steady state
  // (handlers that fit std::function's inline buffer included).
  std::vector<FlowEntry> flows_;
  net::IdAllocator<std::uint32_t> flow_ids_;
  passive::FlowTap* tap_ = nullptr;
};

}  // namespace acute::phone
