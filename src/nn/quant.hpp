#pragma once

/// \file quant.hpp
/// INT8 quantized inference — the real-kernel counterpart of §3.1's
/// precision discussion ("lower-precision formats like INT8 or FP16
/// offer faster inference but may reduce accuracy"). Symmetric
/// per-output-channel weight quantization with dynamic per-row
/// activation quantization, the scheme TensorRT's INT8 path uses for
/// dense layers. Every quantized GEMM runs through the packed int8
/// kernel in qgemm.hpp with a fused dequantizing epilogue, so the hot
/// path is one kernel call — no separate quantize/dequantize memory
/// passes over the accumulators.
///
/// Precision is a state of a layer, not a class: `nn::Dense` (the
/// weight matrix of Linear, PatchEmbed and TransformerBlock) and
/// ConvBnRelu switch to int8 in place on `quantize()`, and one forward
/// body per layer serves both precisions (layers.hpp). This file holds
/// the quantization arithmetic, the int8 cost pricing and
/// `quantize_model`, which calls `quantize()` on every layer.

#include <cstdint>
#include <span>
#include <string>

#include "nn/flops.hpp"

namespace harvest::nn {

class Model;

/// Symmetric quantization of a float span to int8: scale = max|x| / 127,
/// q = std::round(x · (1 / scale)) (half away from zero), clamped to ±127
/// so -128 is never produced. Returns the scale (0 when all inputs are
/// 0). Vector code picked by host ISA; every ISA gives the same bytes.
float quantize_symmetric(std::span<const float> input, std::int8_t* output);

/// Dequantize: x ≈ q · scale.
void dequantize(std::span<const std::int8_t> input, float scale, float* output);

/// Row-parallel dynamic quantization: each of `rows` rows of `dim`
/// floats gets its own symmetric scale (written to scales[row]).
void quantize_rows(const float* input, std::int64_t rows, std::int64_t dim,
                   std::int8_t* output, float* scales);

/// Dense-op cost with int8 operand traffic expressed directly at
/// 1 byte/element (weights and quantized activations), instead of as a
/// fraction of the fp16 deployment convention.
OpCost quantized_dense_cost(std::string name, std::int64_t rows,
                            std::int64_t in_dim, std::int64_t out_dim);

/// Switch `model` to INT8 in place: calls every layer's `quantize()`.
/// Call after init_weights/load_weights — quantization snapshots the
/// weights and frees the fp32 copies.
void quantize_model(Model& model);

}  // namespace harvest::nn
