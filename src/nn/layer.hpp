#pragma once

/// \file layer.hpp
/// The layer abstraction of the HARVEST inference engine. A `Layer` can
/// (a) execute for real on the host CPU (`forward`), (b) describe its
/// abstract operations for the platform cost model (`append_costs`), and
/// (c) expose its parameters for initialization/serialization
/// (`collect_params`). Layers are constructed with their full input
/// geometry, so cost description needs no runtime shape propagation.

#include <memory>
#include <string>
#include <vector>

#include "nn/flops.hpp"
#include "tensor/tensor.hpp"

namespace harvest::nn {

/// A named reference to a parameter tensor owned by a layer.
struct NamedParam {
  std::string name;
  tensor::Tensor* tensor = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Stable identifier used for parameter names and profiles.
  virtual const std::string& name() const = 0;

  /// Execute on host CPU. Input batch may be any size; all other
  /// geometry must match construction parameters.
  virtual tensor::Tensor forward(const tensor::Tensor& input) = 0;

  /// Append this layer's abstract ops at the given batch size.
  virtual void append_costs(std::int64_t batch,
                            std::vector<OpCost>& out) const = 0;

  /// Append (name, tensor) references for every learnable parameter.
  /// Handing out mutable references marks any ahead-of-time packed
  /// operands stale (callers may write through them); layers re-pack
  /// lazily on the next forward or eagerly on the next `prepare()`.
  virtual void collect_params(std::vector<NamedParam>& out) = 0;

  /// One-time load-phase work after the weights are final: layers that
  /// lower to GEMM pack their fp32 weights into `GemmPackedB` panels
  /// here, so the per-call pack pass (and its memory traffic) leaves
  /// the steady-state forward and lands in the measured cold start.
  /// Idempotent; safe to skip (forwards fall back to per-call packing).
  virtual void prepare() {}

  /// Switch this layer to INT8 in place, from its current weights; a
  /// no-op for layers without an int8 form. The fp32 weights are freed,
  /// and a quantized layer hands out no params. Drives `quantize_model`.
  virtual void quantize() {}
};

using LayerPtr = std::unique_ptr<Layer>;

/// Cost helpers shared by layer implementations. All sizes are in
/// elements; byte traffic is priced at fp16 (the paper's deployment
/// precision, §3.1).
namespace cost {

inline constexpr double kDeployBytesPerElem = 2.0;  // fp16

OpCost dense(std::string name, std::int64_t rows, std::int64_t in_dim,
             std::int64_t out_dim);
OpCost conv(std::string name, std::int64_t batch, std::int64_t out_h,
            std::int64_t out_w, std::int64_t out_ch, std::int64_t in_ch,
            std::int64_t kernel);
OpCost attention_matmuls(std::string name, std::int64_t batch,
                         std::int64_t tokens, std::int64_t dim);
OpCost norm(std::string name, std::int64_t elems);
OpCost elementwise(std::string name, std::int64_t elems);

}  // namespace cost

}  // namespace harvest::nn
