#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/graph.hpp"
#include "nn/isa_dispatch.hpp"

namespace harvest::nn {
namespace {

/// W-lane vector types of the quantization body.
template <int W>
struct QuantLanes {
  typedef float F __attribute__((vector_size(W * 4)));
  /// Unaligned, aliasing view of the input.
  typedef float FU
      __attribute__((vector_size(W * 4), aligned(alignof(float)), may_alias));
  typedef std::int32_t I __attribute__((vector_size(W * 4)));
  typedef std::int8_t B __attribute__((vector_size(W)));
};

/// The one quantization body, instantiated per ISA through GCC vector
/// extensions of W lanes: scale = max|x| / 127, then each code is
/// round-half-away-from-zero(x · (1 / scale)) clamped to ±127. Rounding
/// is t = trunc(p), plus sign(p) where |p − t| ≥ 0.5, which is
/// std::round exactly (floor(|p| + 0.5) is not: it rounds 0.49999997
/// up). Clamping before rounding gives the same code, since rounding is
/// monotone and ±127 are integers. A NaN product becomes code 0.
template <int W>
HARVEST_FORCE_INLINE float quantize_body(const float* x, std::int64_t n,
                                         std::int8_t* out) {
  using F = typename QuantLanes<W>::F;
  using FU = typename QuantLanes<W>::FU;
  using I = typename QuantLanes<W>::I;
  using B = typename QuantLanes<W>::B;
  const std::int64_t full = n / W * W;

  F peak_v = {};
  for (std::int64_t i = 0; i < full; i += W) {
    const F a = reinterpret_cast<F>(
        reinterpret_cast<I>(*reinterpret_cast<const FU*>(x + i)) & 0x7fffffff);
    // The comparison ignores NaN, as std::max(peak, NaN) does.
    peak_v = peak_v < a ? a : peak_v;
  }
  float peak = 0.0f;
  for (int l = 0; l < W; ++l) peak = std::max(peak, peak_v[l]);
  for (std::int64_t i = full; i < n; ++i) {
    peak = std::max(peak, std::fabs(x[i]));
  }
  if (peak == 0.0f) {
    std::fill(out, out + n, std::int8_t{0});
    return 0.0f;
  }
  const float scale = peak / 127.0f;
  const float inv = 1.0f / scale;

  const F lo = F{} - 127.0f;
  const F hi = F{} + 127.0f;
  const auto codes = [&](F v) {
    F p = v * inv;
    p = p == p ? p : F{};
    p = p < lo ? lo : p;
    p = hi < p ? hi : p;
    I t = __builtin_convertvector(p, I);  // truncates toward zero
    const F d = p - __builtin_convertvector(t, F);
    t -= d >= 0.5f;   // true lanes are -1
    t += d <= -0.5f;
    return __builtin_convertvector(t, B);
  };
  for (std::int64_t i = 0; i < full; i += W) {
    const B q = codes(*reinterpret_cast<const FU*>(x + i));
    std::memcpy(out + i, &q, W);
  }
  if (full < n) {
    // The tail runs through the same vector code, zero-padded.
    F tail = {};
    std::memcpy(&tail, x + full, static_cast<std::size_t>(n - full) * 4);
    const B q = codes(tail);
    std::memcpy(out + full, &q, static_cast<std::size_t>(n - full));
  }
  return scale;
}

using QuantizeFn = float (*)(const float*, std::int64_t, std::int8_t*);

float quantize_portable(const float* x, std::int64_t n, std::int8_t* out) {
  return quantize_body<4>(x, n, out);
}

#if HARVEST_ISA_DISPATCH
HARVEST_TARGET_AVX2 float quantize_avx2(const float* x, std::int64_t n,
                                        std::int8_t* out) {
  return quantize_body<8>(x, n, out);
}

HARVEST_TARGET_AVX512 float quantize_avx512(const float* x, std::int64_t n,
                                            std::int8_t* out) {
  return quantize_body<16>(x, n, out);
}
#endif

/// The widest body the host runs, picked once per process. Every
/// instance produces the same codes and scale.
QuantizeFn quantize_fn() {
  static const QuantizeFn fn = [] {
#if HARVEST_ISA_DISPATCH
    if (isa::has_avx512f()) return &quantize_avx512;
    if (isa::has_avx2_fma()) return &quantize_avx2;
#endif
    return &quantize_portable;
  }();
  return fn;
}

}  // namespace

float quantize_symmetric(std::span<const float> input, std::int8_t* output) {
  return quantize_fn()(input.data(), static_cast<std::int64_t>(input.size()),
                       output);
}

void dequantize(std::span<const std::int8_t> input, float scale,
                float* output) {
  for (std::size_t i = 0; i < input.size(); ++i) {
    output[i] = static_cast<float>(input[i]) * scale;
  }
}

void quantize_rows(const float* input, std::int64_t rows, std::int64_t dim,
                   std::int8_t* output, float* scales) {
  const QuantizeFn fn = quantize_fn();
#pragma omp parallel for schedule(static)
  for (std::int64_t r = 0; r < rows; ++r) {
    scales[r] = fn(input + r * dim, dim, output + r * dim);
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
