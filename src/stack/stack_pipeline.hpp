// StackPipeline: owns the descent/ascent wiring of a phone's stack.
//
// A pipeline is an ordered list of StackLayers, top (app side) to bottom
// (radio side). append() wires each layer's above/below links; transmit()
// enters the top layer; packets a bottom layer receives from the medium
// ascend via pass_up() until the top layer hands them to the app handler.
//
// The pipeline also owns the cross-cutting instrumentation surface: a stamp
// observer that sees every StampPoint any layer writes, which replaces the
// ad-hoc per-layer logging the pre-pipeline stack used.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "stack/stack_layer.hpp"

namespace acute::stack {

class StackPipeline {
 public:
  /// App-side sink: invoked when the top layer passes a packet up. The
  /// packet arrives as an rvalue; handlers that keep it take it by value
  /// (one move), handlers that only read it can bind a const reference.
  using DeliverFn = std::function<void(net::Packet&&)>;
  /// Cross-layer stamp hook (fires on every StackLayer::stamp call).
  using StampObserver =
      std::function<void(const StackLayer&, StampPoint, const net::Packet&)>;

  explicit StackPipeline(sim::Simulator& sim);

  StackPipeline(const StackPipeline&) = delete;
  StackPipeline& operator=(const StackPipeline&) = delete;
  ~StackPipeline();

  /// Appends `layer` below the current bottom. Layers are appended top to
  /// bottom; a layer can belong to at most one pipeline at a time.
  void append(StackLayer& layer);

  /// Sends a packet down from the app side (enters the top layer).
  void transmit(net::Packet&& packet);

  /// Injects a packet at the bottom layer's deliver() — the medium side.
  void inject(net::Packet&& packet);

  void set_app_handler(DeliverFn handler) { app_handler_ = std::move(handler); }
  void set_stamp_observer(StampObserver observer) {
    stamp_observer_ = std::move(observer);
  }

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] bool empty() const { return layers_.empty(); }
  [[nodiscard]] StackLayer& layer(std::size_t index) {
    return *layers_.at(index);
  }
  [[nodiscard]] StackLayer& top() { return *layers_.front(); }
  [[nodiscard]] StackLayer& bottom() { return *layers_.back(); }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

  /// Layer names top to bottom, e.g. "exec-env/kernel/driver/sdio-bus/station".
  [[nodiscard]] std::string describe() const;

 private:
  friend class StackLayer;
  void deliver_to_app(net::Packet&& packet);

  sim::Simulator* sim_;
  std::vector<StackLayer*> layers_;
  DeliverFn app_handler_;
  StampObserver stamp_observer_;
};

}  // namespace acute::stack
