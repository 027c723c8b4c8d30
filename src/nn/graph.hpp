#pragma once

/// \file graph.hpp
/// A `Model` is an ordered pipeline of layers plus metadata. It executes
/// for real on the host CPU and can be profiled into a `ModelProfile`
/// that the platform cost model consumes.

#include <memory>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace harvest::nn {

class Model {
 public:
  Model(std::string name, tensor::Shape input_shape_per_image,
        std::int64_t num_classes);

  const std::string& name() const { return name_; }
  /// Per-image input shape, e.g. [3, 224, 224].
  const tensor::Shape& input_shape() const { return input_shape_; }
  std::int64_t num_classes() const { return num_classes_; }

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }
  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// Run a batch [N, ...input_shape] through all layers; returns logits
  /// [N, num_classes]. When the calling thread has a `core::ArenaScope`
  /// bound, every activation is arena-backed and allocated with zero
  /// heap traffic in the steady state: the last layer's (the returned
  /// logits) in the bound arena, valid until it resets, and every
  /// earlier layer's in the model's two stage arenas, reclaimed as soon
  /// as the next layer has consumed it. Not reentrant.
  tensor::Tensor forward(const tensor::Tensor& input);

  /// Run every layer's load-phase `prepare()` (AOT weight packing).
  /// Call after weights are final; idempotent.
  void prepare();

  /// All learnable parameters, in layer order.
  std::vector<NamedParam> params();
  std::int64_t param_count();

  /// Abstract-op profile at the given batch size.
  ModelProfile profile(std::int64_t batch_size);

 private:
  std::string name_;
  tensor::Shape input_shape_;
  std::int64_t num_classes_;
  std::vector<LayerPtr> layers_;
  /// Layer i runs in stages_[i % 2], reset just before; its input, the
  /// previous layer's output, lives in the other one. This bounds a
  /// forward's arena footprint by two layers' instead of all of them.
  core::BumpArena stages_[2];
};

using ModelPtr = std::unique_ptr<Model>;

}  // namespace harvest::nn
