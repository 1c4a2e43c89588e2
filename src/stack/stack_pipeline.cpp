#include "stack/stack_pipeline.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::stack {

using sim::expects;

StackPipeline::StackPipeline(sim::Simulator& sim) : sim_(&sim) {}

StackPipeline::~StackPipeline() {
  for (StackLayer* layer : layers_) {
    layer->above_ = nullptr;
    layer->below_ = nullptr;
    layer->pipeline_ = nullptr;
  }
}

void StackPipeline::append(StackLayer& layer) {
  expects(layer.pipeline_ == nullptr,
          "StackLayer is already composed into a pipeline");
  if (!layers_.empty()) {
    layers_.back()->below_ = &layer;
    layer.above_ = layers_.back();
  }
  layer.pipeline_ = this;
  layers_.push_back(&layer);
}

void StackPipeline::transmit(net::Packet&& packet) {
  expects(!layers_.empty(), "StackPipeline::transmit on an empty pipeline");
  layers_.front()->transmit(std::move(packet));
}

void StackPipeline::inject(net::Packet&& packet) {
  expects(!layers_.empty(), "StackPipeline::inject on an empty pipeline");
  layers_.back()->deliver(std::move(packet));
}

void StackPipeline::deliver_to_app(net::Packet&& packet) {
  if (app_handler_) app_handler_(std::move(packet));
}

std::string StackPipeline::describe() const {
  std::string names;
  for (const StackLayer* layer : layers_) {
    if (!names.empty()) names += '/';
    names += layer->layer_name();
  }
  return names;
}

}  // namespace acute::stack
