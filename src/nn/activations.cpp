#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

namespace harvest::nn {

void relu_inplace(float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] = std::max(0.0f, x[i]);
}

void softmax_rows(float* x, std::int64_t rows, std::int64_t row_len) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x + r * row_len;
    float peak = row[0];
    for (std::int64_t i = 1; i < row_len; ++i) peak = std::max(peak, row[i]);
    float denom = 0.0f;
    for (std::int64_t i = 0; i < row_len; ++i) {
      row[i] = std::exp(row[i] - peak);
      denom += row[i];
    }
    const float inv = 1.0f / denom;
    for (std::int64_t i = 0; i < row_len; ++i) row[i] *= inv;
  }
}

void sigmoid_inplace(std::span<float> x) {
  for (float& v : x) v = 1.0f / (1.0f + std::exp(-v));
}

}  // namespace harvest::nn
