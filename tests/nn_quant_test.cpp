#include "nn/quant.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>

#include "core/rng.hpp"
#include "nn/attention.hpp"
#include "nn/gemm.hpp"
#include "nn/graph.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/qgemm.hpp"
#include "tensor/ops.hpp"

namespace harvest::nn {
namespace {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              float scale = 1.0f) {
  core::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = (rng.next_float() * 2.0f - 1.0f) * scale;
  return v;
}

TEST(Quantize, RoundTripErrorBoundedByHalfStep) {
  const auto input = random_vec(1000, 1, 3.0f);
  std::vector<std::int8_t> quantized(input.size());
  const float scale = quantize_symmetric(input, quantized.data());
  ASSERT_GT(scale, 0.0f);
  std::vector<float> rebuilt(input.size());
  dequantize(quantized, scale, rebuilt.data());
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_LE(std::fabs(rebuilt[i] - input[i]), scale * 0.5f + 1e-7f);
  }
}

TEST(Quantize, ZeroInputHasZeroScale) {
  const std::vector<float> zeros(16, 0.0f);
  std::vector<std::int8_t> quantized(16, 1);
  EXPECT_EQ(quantize_symmetric(zeros, quantized.data()), 0.0f);
  for (std::int8_t q : quantized) EXPECT_EQ(q, 0);
}

TEST(Quantize, ExtremesMapToFullRange) {
  const std::vector<float> input = {-2.0f, 0.0f, 2.0f};
  std::vector<std::int8_t> quantized(3);
  const float scale = quantize_symmetric(input, quantized.data());
  EXPECT_EQ(quantized[0], -127);
  EXPECT_EQ(quantized[1], 0);
  EXPECT_EQ(quantized[2], 127);
  EXPECT_FLOAT_EQ(scale, 2.0f / 127.0f);
}

TEST(QGemm, MatchesInt32Reference) {
  constexpr std::int64_t kM = 5;
  constexpr std::int64_t kN = 7;
  constexpr std::int64_t kK = 11;
  core::Rng rng(2);
  std::vector<std::int8_t> a(kM * kK);
  std::vector<std::int8_t> b(kN * kK);
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  std::vector<std::int32_t> c(kM * kN);
  qgemm_bt(a.data(), b.data(), c.data(), kM, kN, kK);
  for (std::int64_t i = 0; i < kM; ++i) {
    for (std::int64_t j = 0; j < kN; ++j) {
      std::int32_t expect = 0;
      for (std::int64_t p = 0; p < kK; ++p) {
        expect += static_cast<std::int32_t>(a[static_cast<std::size_t>(i * kK + p)]) *
                  static_cast<std::int32_t>(b[static_cast<std::size_t>(j * kK + p)]);
      }
      EXPECT_EQ(c[static_cast<std::size_t>(i * kN + j)], expect);
    }
  }
}

/// An INT8 twin of `reference`: a Linear with a copy of its weights,
/// then quantized in place.
Linear quantized_copy(Linear& reference, std::string name,
                      std::int64_t rows_per_image) {
  const Shape& w = reference.weight().shape();
  Linear twin(std::move(name), w[1], w[0], rows_per_image);
  std::copy_n(reference.weight().f32(), reference.weight().numel(),
              twin.weight().f32());
  std::copy_n(reference.bias().f32(), reference.bias().numel(),
              twin.bias().f32());
  twin.quantize();
  return twin;
}

TEST(QuantizedLinear, TracksFloatLinearClosely) {
  constexpr std::int64_t kIn = 64;
  constexpr std::int64_t kOut = 32;
  Linear reference("fc", kIn, kOut, 1);
  core::Rng rng(3);
  for (float& v : reference.weight().f32_span()) {
    v = (rng.next_float() - 0.5f) * 0.4f;
  }
  for (float& v : reference.bias().f32_span()) v = rng.next_float() - 0.5f;

  Linear quantized = quantized_copy(reference, "fc.q", 1);

  Tensor input(Shape{8, kIn}, DType::kF32);
  for (float& v : input.f32_span()) v = (rng.next_float() - 0.5f) * 2.0f;

  Tensor expect = reference.forward(input);
  Tensor actual = quantized.forward(input);
  ASSERT_EQ(actual.shape(), expect.shape());

  // Relative error of INT8 dynamic quantization on well-scaled data is
  // well under 2%.
  double num = 0.0;
  double den = 0.0;
  for (std::int64_t i = 0; i < expect.numel(); ++i) {
    num += std::pow(static_cast<double>(actual.f32()[i] - expect.f32()[i]), 2);
    den += std::pow(static_cast<double>(expect.f32()[i]), 2);
  }
  EXPECT_LT(std::sqrt(num / den), 0.02);
}

TEST(QuantizedLinear, ArgmaxAgreesWithFloatOnSeparatedLogits) {
  // Quantization must not flip clearly separated predictions.
  constexpr std::int64_t kIn = 32;
  constexpr std::int64_t kOut = 8;
  Linear reference("fc", kIn, kOut, 1);
  core::Rng rng(4);
  for (float& v : reference.weight().f32_span()) v = rng.next_float() - 0.5f;
  Linear quantized = quantized_copy(reference, "fc.q", 1);
  int agreements = 0;
  constexpr int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    Tensor input(Shape{1, kIn}, DType::kF32);
    for (float& v : input.f32_span()) v = rng.next_float() - 0.5f;
    Tensor fl = reference.forward(input);
    Tensor q = quantized.forward(input);
    if (tensor::argmax(fl.f32_span()) == tensor::argmax(q.f32_span())) {
      ++agreements;
    }
  }
  EXPECT_GE(agreements, kTrials - 2);  // near-perfect agreement
}

TEST(QuantizedLinear, WeightErrorBoundedByScales) {
  Linear reference("fc", 16, 4, 1);
  core::Rng rng(5);
  for (float& v : reference.weight().f32_span()) v = rng.next_float();
  Linear quantized = quantized_copy(reference, "fc.q", 1);
  // Max row |w| ≤ 1 ⇒ scale ≤ 1/127 ⇒ error ≤ half a step.
  EXPECT_LE(quantized.max_weight_error(), 0.5f / 127.0f + 1e-6f);
}

TEST(QuantizedLinear, CostsReportOneByteOperands) {
  Linear reference("fc", 8, 4, 2);
  Linear quantized = quantized_copy(reference, "fc.q", 2);
  std::vector<OpCost> float_costs;
  std::vector<OpCost> quant_costs;
  reference.append_costs(1, float_costs);
  quantized.append_costs(1, quant_costs);
  ASSERT_EQ(quant_costs.size(), 1u);
  EXPECT_DOUBLE_EQ(quant_costs[0].macs, float_costs[0].macs);
  // int8 traffic is priced directly at 1 byte per element — weights are
  // 8x4 int8, so exactly 32 bytes (half the fp16 deploy convention).
  EXPECT_DOUBLE_EQ(quant_costs[0].weight_bytes, 8.0 * 4.0);
  EXPECT_DOUBLE_EQ(quant_costs[0].weight_bytes,
                   float_costs[0].weight_bytes / 2.0);
}

// --- packed kernel vs naive reference, exact int32 ---------------------

void fill_int8(std::vector<std::int8_t>& v, std::uint64_t seed) {
  core::Rng rng(seed);
  for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
}

TEST(QGemm, PackedMatchesNaiveOnAwkwardShapes) {
  // Shapes chosen to hit every edge of the blocking: M%MR, N%NR, odd K
  // (the k-quad packing zero-pads), K straddling the KC=256 block
  // boundary, M straddling MC=96, and degenerate single-row/column.
  struct Case {
    std::int64_t m, n, k;
  };
  const std::vector<Case> cases = {{7, 13, 9},    {5, 64, 32},  {16, 33, 48},
                                   {12, 32, 257}, {33, 49, 513}, {197, 31, 40},
                                   {1, 129, 77},  {63, 1, 260}};
  for (const Case& c : cases) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(c.m * c.k));
    std::vector<std::int8_t> bt(static_cast<std::size_t>(c.n * c.k));
    fill_int8(a, static_cast<std::uint64_t>(c.m * 7 + c.k));
    fill_int8(bt, static_cast<std::uint64_t>(c.n * 13 + c.k));
    std::vector<std::int32_t> want(static_cast<std::size_t>(c.m * c.n));
    std::vector<std::int32_t> got(want.size(), -1);
    qgemm_bt_naive(a.data(), bt.data(), want.data(), c.m, c.n, c.k);
    qgemm_bt(a.data(), bt.data(), got.data(), c.m, c.n, c.k);
    EXPECT_EQ(want, got) << "shape " << c.m << "x" << c.n << "x" << c.k;
  }
}

TEST(QGemm, NoInt32OverflowAtWorstCaseK) {
  // The deepest reduction any quantized layer runs is K=3072
  // (ViT-Base fc2). At the extreme every product is 127·127 = 16129,
  // so the accumulator peaks at 3072·16129 ≈ 4.95e7 — well inside
  // int32. Verify against an int64 reference at exactly that point.
  constexpr std::int64_t kM = 3, kN = 18, kK = 3072;
  std::vector<std::int8_t> a(kM * kK, 127);
  std::vector<std::int8_t> bt(kN * kK);
  for (std::size_t i = 0; i < bt.size(); ++i) {
    bt[i] = (i % 2 == 0) ? 127 : -127;  // exercise both signs
  }
  std::vector<std::int32_t> got(kM * kN);
  qgemm_bt(a.data(), bt.data(), got.data(), kM, kN, kK);
  for (std::int64_t i = 0; i < kM; ++i) {
    for (std::int64_t j = 0; j < kN; ++j) {
      std::int64_t expect = 0;
      for (std::int64_t p = 0; p < kK; ++p) {
        expect += static_cast<std::int64_t>(a[static_cast<std::size_t>(i * kK + p)]) *
                  static_cast<std::int64_t>(bt[static_cast<std::size_t>(j * kK + p)]);
      }
      ASSERT_LE(std::abs(expect), std::int64_t{INT32_MAX});
      EXPECT_EQ(static_cast<std::int64_t>(
                    got[static_cast<std::size_t>(i * kN + j)]),
                expect);
    }
  }
}

TEST(QGemmKernels, EveryEntryIsInt32Exact) {
  // Every kernel the host runs, through on-the-fly and ahead-of-time
  // packing, on shapes that hit each packing tail: K % 4 in {1, 2, 3}
  // (zero-padded quads), K straddling KC = 256, M straddling MC = 96,
  // N % NR != 0, m = 1, and all-±127 operands at K = 3072. Operands
  // span the whole int8 range, -128 included.
  struct Case {
    std::int64_t m, n, k;
    bool extreme;
  };
  const std::vector<Case> cases = {
      {9, 35, 13, false},   {10, 33, 14, false},   {11, 47, 15, false},
      {17, 64, 255, false}, {13, 40, 257, false},  {7, 31, 513, false},
      {97, 19, 36, false},  {193, 70, 41, false},  {1, 77, 129, false},
      {1, 1, 6, false},     {5, 18, 3072, true}};
  ASSERT_FALSE(qgemm_kernels().empty());
  EXPECT_STREQ(qgemm_kernels().front().name, qgemm_isa());
  for (const QGemmKernel& kernel : qgemm_kernels()) {
    for (const Case& c : cases) {
      std::vector<std::int8_t> a(static_cast<std::size_t>(c.m * c.k));
      std::vector<std::int8_t> bt(static_cast<std::size_t>(c.n * c.k));
      if (c.extreme) {
        for (std::size_t i = 0; i < a.size(); ++i) {
          a[i] = i % 3 == 0 ? -127 : 127;
        }
        for (std::size_t i = 0; i < bt.size(); ++i) {
          bt[i] = i % 2 == 0 ? 127 : -127;
        }
      } else {
        core::Rng rng(static_cast<std::uint64_t>(c.m * 1000 + c.n * 10 + c.k));
        for (auto& x : a) {
          x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
        for (auto& x : bt) {
          x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
      }
      std::vector<std::int32_t> want(static_cast<std::size_t>(c.m * c.n));
      std::vector<std::int32_t> got(want.size(), -1);
      qgemm_bt_naive(a.data(), bt.data(), want.data(), c.m, c.n, c.k);
      qgemm_bt_with_kernel(kernel, a.data(), bt.data(), got.data(), c.m, c.n,
                           c.k);
      EXPECT_EQ(want, got) << kernel.name << " shape " << c.m << "x" << c.n
                           << "x" << c.k;

      // Prepacked: with no scales the retire is float(acc), so the
      // output equals the exact accumulators converted once.
      const QGemmPackedB packed(kernel, bt.data(), c.n, c.k);
      ASSERT_EQ(packed.kernel().fn, kernel.fn);
      std::vector<float> fgot(want.size(), -1.0f);
      qgemm_prepacked_dequant(a.data(), packed, fgot.data(), c.m,
                              QGemmEpilogue{});
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(fgot[i], static_cast<float>(want[i]))
            << kernel.name << " prepacked shape " << c.m << "x" << c.n << "x"
            << c.k << " at " << i;
      }
    }
  }
}

/// The scalar definition of the row quantization: std::round, then a
/// clamp to ±127.
float quantize_reference(const float* x, std::int64_t n, std::int8_t* out) {
  float peak = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) peak = std::max(peak, std::fabs(x[i]));
  if (peak == 0.0f) {
    std::fill(out, out + n, std::int8_t{0});
    return 0.0f;
  }
  const float scale = peak / 127.0f;
  const float inv = 1.0f / scale;
  for (std::int64_t i = 0; i < n; ++i) {
    const float q = std::round(x[i] * inv);
    out[i] = static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
  }
  return scale;
}

TEST(Quantize, RowsMatchScalarRoundReferenceBytewise) {
  for (const std::int64_t dim : {1, 15, 17, 193}) {
    std::vector<float> input;
    // Peak 127 makes scale and inv exactly 1, so these are the products:
    // exact ties (±k.5) and the largest float below 0.5.
    const std::vector<float> ties = {
        0.5f,        -0.5f,        1.5f,       -2.5f, 126.5f, -126.5f,
        0.49999997f, -0.49999997f, 2.4999998f, -3.5f, 64.5f,  -0.0f};
    std::int64_t rows = 0;
    const auto add_row = [&](const std::function<float(std::int64_t)>& gen) {
      for (std::int64_t d = 0; d < dim; ++d) input.push_back(gen(d));
      ++rows;
    };
    add_row([&](std::int64_t d) {
      return d == 0 ? 127.0f : ties[static_cast<std::size_t>(d) % ties.size()];
    });
    add_row([&](std::int64_t d) {
      return d == 0 ? -127.0f
                    : ties[static_cast<std::size_t>(d + 5) % ties.size()];
    });
    add_row([](std::int64_t) { return 0.0f; });  // zero row
    add_row([](std::int64_t d) { return d % 2 == 0 ? 0.1274f : -0.05f; });
    core::Rng rng(static_cast<std::uint64_t>(dim));
    for (int r = 0; r < 64; ++r) {
      // Random rows at many scales, some with one outlier that sets the
      // scale; peaks whose product rounds past 127 clamp.
      const float magnitude =
          std::ldexp(1.0f, r % 24 - 12) * (1.0f + rng.next_float());
      const std::int64_t outlier =
          r % 3 == 0 ? rng.uniform_int(0, dim - 1) : -1;
      add_row([&](std::int64_t d) {
        const float v = (rng.next_float() * 2.0f - 1.0f) * magnitude;
        return d == outlier ? v * 50.0f : v;
      });
    }
    add_row([](std::int64_t) { return 0.0f; });  // zero row last

    std::vector<std::int8_t> want(input.size());
    std::vector<float> want_scales(static_cast<std::size_t>(rows));
    std::int64_t clamped = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* row = input.data() + r * dim;
      want_scales[static_cast<std::size_t>(r)] =
          quantize_reference(row, dim, want.data() + r * dim);
      const float scale = want_scales[static_cast<std::size_t>(r)];
      // A peak's product can land just past 127 (0.1274f · (1 / (0.1274f
      // / 127)) is 127.000008), and the clamp must act on it.
      for (std::int64_t d = 0; scale > 0.0f && d < dim; ++d) {
        if (std::fabs(row[d] * (1.0f / scale)) > 127.0f) ++clamped;
      }
    }
    std::vector<std::int8_t> got(input.size(), 1);
    std::vector<float> scales(static_cast<std::size_t>(rows), -1.0f);
    quantize_rows(input.data(), rows, dim, got.data(), scales.data());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size()), 0)
        << "dim " << dim;
    EXPECT_EQ(std::memcmp(want_scales.data(), scales.data(),
                          scales.size() * sizeof(float)),
              0)
        << "dim " << dim;
    std::vector<std::int8_t> single(static_cast<std::size_t>(dim));
    for (std::int64_t r = 0; r < rows; ++r) {
      const float scale = quantize_symmetric(
          {input.data() + r * dim, static_cast<std::size_t>(dim)},
          single.data());
      EXPECT_EQ(scale, want_scales[static_cast<std::size_t>(r)]);
      EXPECT_EQ(std::memcmp(single.data(), want.data() + r * dim,
                            static_cast<std::size_t>(dim)),
                0)
          << "dim " << dim << " row " << r;
    }
    EXPECT_GT(clamped, 0) << "dim " << dim;
  }
}

TEST(Quantize, SaturatesAtPlusMinus127Never128) {
  // An outlier beyond the symmetric range must clamp to ±127; the int8
  // minimum -128 is never produced, so |q|·scale round-trips safely.
  std::vector<float> input(64);
  core::Rng rng(9);
  for (float& x : input) x = rng.next_float() - 0.5f;
  input[10] = -5.0f;  // negative peak sets the scale
  input[20] = 4.9f;
  std::vector<std::int8_t> q(input.size());
  const float scale = quantize_symmetric(input, q.data());
  EXPECT_FLOAT_EQ(scale, 5.0f / 127.0f);
  for (std::int8_t v : q) {
    EXPECT_GE(v, -127);
    EXPECT_LE(v, 127);
  }
  EXPECT_EQ(q[10], -127);
}

TEST(Quantize, ZeroRowsGetZeroScaleAmongNonzeroRows) {
  constexpr std::int64_t kRows = 4, kDim = 32;
  std::vector<float> input(kRows * kDim, 0.0f);
  for (std::int64_t d = 0; d < kDim; ++d) {
    input[static_cast<std::size_t>(0 * kDim + d)] = 1.0f;  // row 0 nonzero
    input[static_cast<std::size_t>(2 * kDim + d)] = -2.0f; // row 2 nonzero
  }
  std::vector<std::int8_t> q(input.size(), 1);
  std::vector<float> scales(kRows, -1.0f);
  quantize_rows(input.data(), kRows, kDim, q.data(), scales.data());
  EXPECT_GT(scales[0], 0.0f);
  EXPECT_EQ(scales[1], 0.0f);
  EXPECT_GT(scales[2], 0.0f);
  EXPECT_EQ(scales[3], 0.0f);
  for (std::int64_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(q[static_cast<std::size_t>(1 * kDim + d)], 0);
    EXPECT_EQ(q[static_cast<std::size_t>(3 * kDim + d)], 0);
  }
}

// --- fused dequantizing epilogue ---------------------------------------

float gelu_ref(float x) {
  return 0.5f * x * (1.0f + std::erf(x * 0.70710678118654752440f));
}

TEST(QGemm, DequantEpilogueMatchesScalarReference) {
  constexpr std::int64_t kM = 21, kN = 35, kK = 130;
  std::vector<std::int8_t> a(kM * kK);
  std::vector<std::int8_t> bt(kN * kK);
  fill_int8(a, 21);
  fill_int8(bt, 35);
  std::vector<std::int32_t> acc(kM * kN);
  qgemm_bt_naive(a.data(), bt.data(), acc.data(), kM, kN, kK);

  core::Rng rng(11);
  std::vector<float> scale_m(kM), scale_n(kN), bias_m(kM), bias_n(kN);
  for (float& x : scale_m) x = rng.next_float() * 0.01f + 1e-4f;
  for (float& x : scale_n) x = rng.next_float() * 0.01f + 1e-4f;
  for (float& x : bias_m) x = rng.next_float() - 0.5f;
  for (float& x : bias_n) x = rng.next_float() - 0.5f;

  for (const QGemmEpilogue::Act act :
       {QGemmEpilogue::Act::kNone, QGemmEpilogue::Act::kRelu,
        QGemmEpilogue::Act::kGelu}) {
    for (const bool accumulate : {false, true}) {
      QGemmEpilogue ep;
      ep.scale_m = scale_m.data();
      ep.scale_n = scale_n.data();
      ep.bias_m = bias_m.data();
      ep.bias_n = bias_n.data();
      ep.act = act;
      ep.accumulate = accumulate;
      std::vector<float> got(kM * kN, 0.25f);
      qgemm_bt_dequant(a.data(), bt.data(), got.data(), kM, kN, kK, ep);
      for (std::int64_t i = 0; i < kM; ++i) {
        for (std::int64_t j = 0; j < kN; ++j) {
          float v = static_cast<float>(acc[static_cast<std::size_t>(i * kN + j)]) *
                        scale_m[static_cast<std::size_t>(i)] *
                        scale_n[static_cast<std::size_t>(j)] +
                    bias_m[static_cast<std::size_t>(i)] +
                    bias_n[static_cast<std::size_t>(j)];
          if (act == QGemmEpilogue::Act::kRelu) v = std::max(0.0f, v);
          if (act == QGemmEpilogue::Act::kGelu) v = gelu_ref(v);
          if (accumulate) v += 0.25f;
          EXPECT_NEAR(got[static_cast<std::size_t>(i * kN + j)], v,
                      1e-5f * (std::fabs(v) + 1.0f));
        }
      }
    }
  }
}

TEST(QGemm, DequantRetireIsBitwiseTheScalarFormula) {
  // The vectorized retire must round every element exactly as
  // dequant_one's sequence does: float(acc) · scale_m · scale_n
  // + bias_m + bias_n, then the activation, then + c when accumulating.
  constexpr std::int64_t kM = 101, kN = 531, kK = 70;
  std::vector<std::int8_t> a(kM * kK);
  std::vector<std::int8_t> bt(kN * kK);
  fill_int8(a, 101);
  fill_int8(bt, 531);
  std::vector<std::int32_t> acc(kM * kN);
  qgemm_bt_naive(a.data(), bt.data(), acc.data(), kM, kN, kK);
  core::Rng rng(12);
  std::vector<float> scale_m(kM), scale_n(kN), bias_m(kM), bias_n(kN),
      start(kM * kN);
  for (float& x : scale_m) x = rng.next_float() * 0.01f + 1e-4f;
  for (float& x : scale_n) x = rng.next_float() * 0.01f + 1e-4f;
  for (float& x : bias_m) x = rng.next_float() - 0.5f;
  for (float& x : bias_n) x = rng.next_float() - 0.5f;
  for (float& x : start) x = rng.next_float() - 0.5f;
  for (const QGemmEpilogue::Act act :
       {QGemmEpilogue::Act::kNone, QGemmEpilogue::Act::kRelu}) {
    for (const bool accumulate : {false, true}) {
      QGemmEpilogue ep;
      ep.scale_m = scale_m.data();
      ep.scale_n = scale_n.data();
      ep.bias_m = bias_m.data();
      ep.bias_n = bias_n.data();
      ep.act = act;
      ep.accumulate = accumulate;
      std::vector<float> want = start;
      for (std::int64_t i = 0; i < kM; ++i) {
        for (std::int64_t j = 0; j < kN; ++j) {
          float v = static_cast<float>(acc[static_cast<std::size_t>(i * kN + j)]);
          v *= scale_m[static_cast<std::size_t>(i)];
          v *= scale_n[static_cast<std::size_t>(j)];
          v += bias_m[static_cast<std::size_t>(i)];
          v += bias_n[static_cast<std::size_t>(j)];
          if (act == QGemmEpilogue::Act::kRelu) v = std::max(0.0f, v);
          float& out = want[static_cast<std::size_t>(i * kN + j)];
          out = accumulate ? out + v : v;
        }
      }
      std::vector<float> got = start;
      qgemm_bt_dequant(a.data(), bt.data(), got.data(), kM, kN, kK, ep);
      EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
                0)
          << "act " << static_cast<int>(act) << " accumulate " << accumulate;
      const QGemmPackedB packed(bt.data(), kN, kK);
      std::vector<float> pgot = start;
      qgemm_prepacked_dequant(a.data(), packed, pgot.data(), kM, ep);
      EXPECT_EQ(std::memcmp(want.data(), pgot.data(), want.size() * sizeof(float)),
                0)
          << "prepacked act " << static_cast<int>(act) << " accumulate "
          << accumulate;
    }
  }
}

TEST(QGemm, PrepackedMatchesOnTheFlyPacking) {
  constexpr std::int64_t kM = 57, kN = 70, kK = 301;
  std::vector<std::int8_t> a(kM * kK);
  std::vector<std::int8_t> bt(kN * kK);
  fill_int8(a, 57);
  fill_int8(bt, 70);
  std::vector<float> scale_m(kM, 0.003f), scale_n(kN, 0.007f), bias_n(kN, 0.1f);
  QGemmEpilogue ep;
  ep.scale_m = scale_m.data();
  ep.scale_n = scale_n.data();
  ep.bias_n = bias_n.data();

  std::vector<float> want(kM * kN), got(kM * kN);
  qgemm_bt_dequant(a.data(), bt.data(), want.data(), kM, kN, kK, ep);
  QGemmPackedB packed(bt.data(), kN, kK);
  EXPECT_EQ(packed.n(), kN);
  EXPECT_EQ(packed.k(), kK);
  qgemm_prepacked_dequant(a.data(), packed, got.data(), kM, ep);
  // Same int32 accumulators, same epilogue arithmetic → bitwise equal.
  EXPECT_EQ(want, got);
}

// --- whole-model graph rewrite -----------------------------------------

double model_agreement(Model& fp32, Model& int8, double* rel_l2) {
  constexpr std::int64_t kBatch = 4;
  const tensor::Shape& per_image = fp32.input_shape();
  Tensor input(Shape{kBatch, per_image.dim(0), per_image.dim(1),
                     per_image.dim(2)},
               DType::kF32);
  core::Rng rng(17);
  for (float& v : input.f32_span()) v = rng.next_float() * 2.0f - 1.0f;
  const Tensor a = fp32.forward(input);
  const Tensor b = int8.forward(input);
  const std::int64_t classes = fp32.num_classes();
  std::int64_t agree = 0;
  double num = 0.0, den = 0.0;
  for (std::int64_t r = 0; r < kBatch; ++r) {
    std::span<const float> fr{a.f32() + r * classes,
                              static_cast<std::size_t>(classes)};
    std::span<const float> qr{b.f32() + r * classes,
                              static_cast<std::size_t>(classes)};
    if (tensor::argmax(fr) == tensor::argmax(qr)) ++agree;
    for (std::int64_t c = 0; c < classes; ++c) {
      const double d = static_cast<double>(fr[static_cast<std::size_t>(c)]) -
                       static_cast<double>(qr[static_cast<std::size_t>(c)]);
      num += d * d;
      den += static_cast<double>(fr[static_cast<std::size_t>(c)]) *
             static_cast<double>(fr[static_cast<std::size_t>(c)]);
    }
  }
  *rel_l2 = den > 0.0 ? std::sqrt(num / den) : 0.0;
  return static_cast<double>(agree) / kBatch;
}

TEST(QuantizeModel, VitTracksFp32Twin) {
  const ViTConfig config{"qvit", 16, 4, 32, 2, 2, 4, 5};
  ModelPtr fp32 = build_vit(config);
  ModelPtr int8 = build_vit(config);
  init_weights(*fp32, 42);
  init_weights(*int8, 42);
  const std::int64_t params_before = int8->param_count();
  quantize_model(*int8);
  // Quantized layers freeze their weights (empty collect_params), so a
  // successful rewrite strictly shrinks the trainable-parameter count.
  EXPECT_LT(int8->param_count(), params_before);
  double rel_l2 = 1.0;
  const double agreement = model_agreement(*fp32, *int8, &rel_l2);
  EXPECT_GE(agreement, 0.75);
  EXPECT_LT(rel_l2, 0.05);
}

TEST(QuantizeModel, ResNetTracksFp32Twin) {
  ResNetConfig config;
  config.name = "qresnet";
  config.image = 32;
  config.num_classes = 5;
  config.stage_blocks = {1, 1};
  ModelPtr fp32 = build_resnet(config);
  ModelPtr int8 = build_resnet(config);
  init_weights(*fp32, 42);
  init_weights(*int8, 42);
  const std::int64_t params_before = int8->param_count();
  quantize_model(*int8);
  EXPECT_LT(int8->param_count(), params_before);
  double rel_l2 = 1.0;
  const double agreement = model_agreement(*fp32, *int8, &rel_l2);
  EXPECT_GE(agreement, 0.75);
  EXPECT_LT(rel_l2, 0.05);
}

// --- thread-count invariance --------------------------------------------
//
// Each output element is computed by one thread in a fixed order, so the
// int8 kernel, the fused attention and whole forwards must not move by
// one bit with the OpenMP team size. The wide team never exceeds nproc.

template <typename Fn>
std::vector<float> run_with_threads(int threads, Fn fn) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  std::vector<float> out = fn();
  omp_set_num_threads(saved);
  return out;
}

int wide_team() { return std::min(4, omp_get_num_procs()); }

void expect_same_at_one_and_wide_team(
    const std::function<std::vector<float>()>& fn) {
  const std::vector<float> one = run_with_threads(1, fn);
  const std::vector<float> wide = run_with_threads(wide_team(), fn);
  ASSERT_EQ(one.size(), wide.size());
  EXPECT_EQ(std::memcmp(one.data(), wide.data(), one.size() * sizeof(float)),
            0)
      << "1 vs " << wide_team() << " threads";
}

TEST(ThreadInvariance, QGemmPrepackedDequant) {
  constexpr std::int64_t kM = 130, kN = 200, kK = 300;
  std::vector<std::int8_t> a(kM * kK);
  std::vector<std::int8_t> bt(kN * kK);
  fill_int8(a, 130);
  fill_int8(bt, 200);
  const QGemmPackedB packed(bt.data(), kN, kK);
  core::Rng rng(31);
  std::vector<float> scale_m(kM), scale_n(kN), bias_n(kN), start(kM * kN);
  for (float& x : scale_m) x = rng.next_float() * 0.01f + 1e-4f;
  for (float& x : scale_n) x = rng.next_float() * 0.01f + 1e-4f;
  for (float& x : bias_n) x = rng.next_float() - 0.5f;
  for (float& x : start) x = rng.next_float() - 0.5f;
  for (const bool accumulate : {false, true}) {
    expect_same_at_one_and_wide_team([&] {
      QGemmEpilogue ep;
      ep.scale_m = scale_m.data();
      ep.scale_n = scale_n.data();
      ep.bias_n = bias_n.data();
      ep.act = QGemmEpilogue::Act::kGelu;
      ep.accumulate = accumulate;
      std::vector<float> c = start;
      qgemm_prepacked_dequant(a.data(), packed, c.data(), kM, ep);
      return c;
    });
  }
}

TEST(ThreadInvariance, FusedAttention) {
  constexpr std::int64_t kBatch = 3, kTokens = 65, kDim = 96, kHeads = 3;
  const std::vector<float> qkv =
      random_vec(static_cast<std::size_t>(kBatch * kTokens * 3 * kDim), 65);
  expect_same_at_one_and_wide_team([&] {
    std::vector<float> out(static_cast<std::size_t>(kBatch * kTokens * kDim));
    self_attention_fused_batched(qkv.data(), out.data(), kBatch, kTokens, kDim,
                                 kHeads);
    return out;
  });
}

void expect_forward_thread_invariant(Model& model) {
  const tensor::Shape& per_image = model.input_shape();
  Tensor input(Shape{3, per_image.dim(0), per_image.dim(1), per_image.dim(2)},
               DType::kF32);
  core::Rng rng(23);
  for (float& v : input.f32_span()) v = rng.next_float() * 2.0f - 1.0f;
  expect_same_at_one_and_wide_team([&] {
    const Tensor logits = model.forward(input);
    return std::vector<float>(logits.f32(), logits.f32() + logits.numel());
  });
}

TEST(ThreadInvariance, ModelForwardFp32Vit) {
  ModelPtr model = build_vit(vit_tiny_config());
  init_weights(*model, 42);
  model->prepare();
  expect_forward_thread_invariant(*model);
}

TEST(ThreadInvariance, ModelForwardInt8Vit) {
  ModelPtr model = build_vit(vit_tiny_config());
  init_weights(*model, 42);
  quantize_model(*model);
  model->prepare();
  expect_forward_thread_invariant(*model);
}

TEST(ThreadInvariance, ModelForwardInt8ResNet) {
  ResNetConfig config;
  config.name = "qresnet";
  config.image = 32;
  config.num_classes = 5;
  config.stage_blocks = {1, 1};
  ModelPtr model = build_resnet(config);
  init_weights(*model, 42);
  quantize_model(*model);
  expect_forward_thread_invariant(*model);
}

}  // namespace
}  // namespace harvest::nn
