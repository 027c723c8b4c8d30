#pragma once

/// \file gelu.hpp
/// Private to `nn/`: the one GELU, x·½·(1 + erf(x/√2)), of both GEMM
/// epilogues. erf is Eigen's and XLA's float form, z·P(z²)/Q(z²) with
/// z = x/√2 clamped to [−4, 4] and the result to [−1, 1]: no lookup, no
/// branch and no libm call, so it runs at the vector width of the
/// `target(...)` wrapper that inlines it. On [−12, 12] it is within
/// 1.22e-6·max(1, |gelu|) of double precision (AVX-512); NaN propagates.

#include <cstdint>
#include <cstring>

#include "nn/isa_dispatch.hpp"

namespace harvest::nn::detail {

/// GELU in place on `n` floats, W lanes at a time. The tail runs the same
/// vector code zero-padded, so a column's bits do not depend on whether
/// it lands in a full tile or in an N % NR tail.
template <int W>
HARVEST_FORCE_INLINE void gelu_row(float* v, std::int64_t n) {
  typedef float V __attribute__((vector_size(W * sizeof(float))));
  // Eigen's coefficients, highest power first: z¹³ … z¹ and z⁸ … z⁰.
  constexpr float kP[] = {-2.72614225801306e-10f, 2.77068142495902e-08f,
                          -2.10102402082508e-06f, -5.69250639462346e-05f,
                          -7.34990630326855e-04f, -2.95459980854025e-03f,
                          -1.60960333262415e-02f};
  constexpr float kQ[] = {-1.45660718464996e-05f, -2.13374055278905e-04f,
                          -1.68282697438203e-03f, -7.37332916720468e-03f,
                          -1.42647390514189e-02f};
  const std::int64_t body = n / W * W;
  const auto tail = static_cast<std::size_t>(n - body) * sizeof(float);
  float pad[W] = {};
  if (tail != 0) std::memcpy(pad, v + body, tail);
  for (std::int64_t j = 0; j < n; j += W) {
    float* lanes = j < body ? v + j : pad;
    V x;
    std::memcpy(&x, lanes, sizeof(V));
    V z = x * 0.70710678118654752440f;
    z = z < 4.0f ? z : V{} + 4.0f;
    z = z > -4.0f ? z : V{} - 4.0f;
    const V z2 = z * z;
    V p = V{} + kP[0], q = V{} + kQ[0];
#pragma GCC unroll 8
    for (int c = 1; c < 7; ++c) p = z2 * p + kP[c];
#pragma GCC unroll 8
    for (int c = 1; c < 5; ++c) q = z2 * q + kQ[c];
    V erf = z * p / q;
    erf = erf < 1.0f ? erf : V{} + 1.0f;
    erf = erf > -1.0f ? erf : V{} - 1.0f;
    x = x * 0.5f * (1.0f + erf);
    std::memcpy(lanes, &x, sizeof(V));
  }
  if (tail != 0) std::memcpy(v + body, pad, tail);
}

}  // namespace harvest::nn::detail
