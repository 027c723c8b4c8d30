#include "nn/graph.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace harvest::nn {

using tensor::Shape;
using tensor::Tensor;

Model::Model(std::string name, Shape input_shape_per_image,
             std::int64_t num_classes)
    : name_(std::move(name)), input_shape_(input_shape_per_image),
      num_classes_(num_classes) {}

Tensor Model::forward(const Tensor& input) {
  HARVEST_CHECK_MSG(!layers_.empty(), "model has no layers");
  // Layers take their input by const reference, so the first layer can
  // read `input` directly — the former defensive clone was a full
  // batch copy (and a heap allocation) on every forward.
  const Tensor* cur = &input;
  Tensor x;
  const std::int64_t batch = input.shape().rank() > 0 ? input.shape()[0] : 0;
  const bool staged = core::ArenaScope::current() != nullptr;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    obs::ScopedSpan span(layers_[i]->name(), "nn");
    span.set_batch(batch);
    if (staged && i + 1 < layers_.size()) {
      core::BumpArena& stage = stages_[i % 2];
      stage.reset();
      core::ArenaScope scope(stage);
      x = layers_[i]->forward(*cur);
    } else {
      x = layers_[i]->forward(*cur);
    }
    cur = &x;
  }
  return x;
}

void Model::prepare() {
  for (LayerPtr& layer : layers_) layer->prepare();
}

std::vector<NamedParam> Model::params() {
  std::vector<NamedParam> out;
  for (LayerPtr& layer : layers_) layer->collect_params(out);
  return out;
}

std::int64_t Model::param_count() {
  std::int64_t count = 0;
  for (const NamedParam& p : params()) count += p.tensor->numel();
  return count;
}

ModelProfile Model::profile(std::int64_t batch_size) {
  ModelProfile profile;
  profile.model_name = name_;
  profile.batch_size = batch_size;
  for (const LayerPtr& layer : layers_) {
    layer->append_costs(batch_size, profile.ops);
  }
  profile.param_count = param_count();
  profile.param_bytes_fp16 = static_cast<double>(profile.param_count) * 2.0;
  double peak = 0.0;
  for (const OpCost& op : profile.ops) {
    peak = std::max(peak, op.bytes_read + op.bytes_written);
  }
  profile.peak_activation_bytes_fp16 = peak;
  return profile;
}

}  // namespace harvest::nn
