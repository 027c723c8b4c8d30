#pragma once

/// \file activations.hpp
/// Pointwise activations and row-wise softmax (GELU is a GEMM epilogue).

#include <cstdint>
#include <span>

namespace harvest::nn {

/// In-place ReLU.
void relu_inplace(float* x, std::int64_t n);

/// Numerically stable softmax over each contiguous row of length
/// `row_len`; `rows * row_len` elements total.
void softmax_rows(float* x, std::int64_t rows, std::int64_t row_len);

/// Sigmoid on a span (used by example post-processing).
void sigmoid_inplace(std::span<float> x);

}  // namespace harvest::nn
