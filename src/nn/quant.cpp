#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>

#include "nn/graph.hpp"

namespace harvest::nn {

float quantize_symmetric(std::span<const float> input, std::int8_t* output) {
  float peak = 0.0f;
  for (float v : input) peak = std::max(peak, std::fabs(v));
  if (peak == 0.0f) {
    std::fill(output, output + input.size(), std::int8_t{0});
    return 0.0f;
  }
  const float scale = peak / 127.0f;
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float q = std::round(input[i] * inv);
    output[i] = static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
  }
  return scale;
}

void dequantize(std::span<const std::int8_t> input, float scale,
                float* output) {
  for (std::size_t i = 0; i < input.size(); ++i) {
    output[i] = static_cast<float>(input[i]) * scale;
  }
}

void quantize_rows(const float* input, std::int64_t rows, std::int64_t dim,
                   std::int8_t* output, float* scales) {
#pragma omp parallel for schedule(static)
  for (std::int64_t r = 0; r < rows; ++r) {
    scales[r] = quantize_symmetric(
        {input + r * dim, static_cast<std::size_t>(dim)}, output + r * dim);
  }
}

OpCost quantized_dense_cost(std::string name, std::int64_t rows,
                            std::int64_t in_dim, std::int64_t out_dim) {
  OpCost op = cost::dense(std::move(name), rows, in_dim, out_dim);
  // INT8 operand traffic is priced directly: 1 byte per weight or
  // quantized-activation element (vs the fp16 deployment convention of
  // cost::kDeployBytesPerElem for fp32 layers).
  constexpr double kInt8BytesPerElem = 1.0;
  const double r = static_cast<double>(rows);
  const double in = static_cast<double>(in_dim);
  const double out = static_cast<double>(out_dim);
  op.weight_bytes = in * out * kInt8BytesPerElem;
  op.bytes_read = r * in * kInt8BytesPerElem + op.weight_bytes;
  op.bytes_written = r * out * kInt8BytesPerElem;
  return op;
}

// ----------------------------------------------------------- quantize_model

void quantize_model(Model& model) {
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    model.layer(i).quantize();
  }
}

}  // namespace harvest::nn
