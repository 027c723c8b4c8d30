#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/rng.hpp"
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/norm.hpp"
#include "nn/qgemm.hpp"
#include "tensor/ops.hpp"

namespace harvest::nn {
namespace {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.next_float() * 2.0f - 1.0f;
  return v;
}

/// Exact GELU in double: x · ½ · (1 + erf(x/√2)).
double gelu_ref(double x) {
  return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
}

// ------------------------------------------------------------------- GEMM

/// Blocked GEMM must match the naive reference across awkward shapes
/// (non-multiples of the 4×16 micro-kernel and the cache blocks).
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, BlockedMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = random_vec(static_cast<std::size_t>(m * k), 1);
  const auto b = random_vec(static_cast<std::size_t>(k * n), 2);
  std::vector<float> c_blocked(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c_naive(static_cast<std::size_t>(m * n), 0.0f);
  gemm(a.data(), b.data(), c_blocked.data(), m, n, k);
  gemm_naive(a.data(), b.data(), c_naive.data(), m, n, k);
  for (std::size_t i = 0; i < c_naive.size(); ++i) {
    EXPECT_NEAR(c_blocked[i], c_naive[i],
                1e-4f * static_cast<float>(k)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 16, 8),
                      std::make_tuple(5, 17, 9), std::make_tuple(3, 1, 7),
                      std::make_tuple(64, 64, 64), std::make_tuple(65, 33, 70),
                      std::make_tuple(128, 16, 300),
                      std::make_tuple(7, 130, 257),
                      std::make_tuple(100, 100, 1),
                      // Packed-panel edge cases: M%4≠0 with N%16≠0
                      // around the KC/NC block boundaries, ViT-ish M.
                      std::make_tuple(37, 41, 259),
                      std::make_tuple(196, 49, 64),
                      std::make_tuple(2, 515, 33)));

TEST(Gemm, AccumulateAddsToExisting) {
  const auto a = random_vec(6, 3);
  const auto b = random_vec(6, 4);
  std::vector<float> base(4, 1.0f);
  std::vector<float> expect(4, 0.0f);
  gemm_naive(a.data(), b.data(), expect.data(), 2, 2, 3);
  for (float& v : expect) v += 1.0f;
  gemm(a.data(), b.data(), base.data(), 2, 2, 3, /*accumulate=*/true);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(base[i], expect[i], 1e-5f);
}

TEST(Gemm, TransposedBMatchesExplicitTranspose) {
  constexpr int kM = 9;
  constexpr int kN = 13;
  constexpr int kK = 21;
  const auto a = random_vec(kM * kK, 5);
  const auto b_t = random_vec(kN * kK, 6);  // stored [N, K]
  std::vector<float> b(kK * kN);
  for (int i = 0; i < kN; ++i) {
    for (int p = 0; p < kK; ++p) b[p * kN + i] = b_t[i * kK + p];
  }
  std::vector<float> via_bt(kM * kN, 0.0f);
  std::vector<float> via_plain(kM * kN, 0.0f);
  gemm_bt(a.data(), b_t.data(), via_bt.data(), kM, kN, kK);
  gemm_naive(a.data(), b.data(), via_plain.data(), kM, kN, kK);
  for (int i = 0; i < kM * kN; ++i) EXPECT_NEAR(via_bt[i], via_plain[i], 1e-4f);
}

TEST(Gemm, RowBias) {
  std::vector<float> c = {0.0f, 0.0f, 1.0f, 1.0f};
  const std::vector<float> bias = {10.0f, 20.0f};
  add_row_bias(c.data(), bias.data(), 2, 2);
  EXPECT_EQ(c[0], 10.0f);
  EXPECT_EQ(c[1], 20.0f);
  EXPECT_EQ(c[2], 11.0f);
  EXPECT_EQ(c[3], 21.0f);
}

TEST(Gemm, DegenerateDimsAreNoops) {
  std::vector<float> c(4, 5.0f);
  gemm(nullptr, nullptr, c.data(), 0, 2, 2);
  EXPECT_EQ(c[0], 5.0f);
}

// ------------------------------------------------- fused epilogue / strides

TEST(GemmEx, FusedColumnBiasMatchesSeparatePass) {
  constexpr int kM = 21, kN = 35, kK = 40;
  const auto a = random_vec(kM * kK, 12);
  const auto b = random_vec(kK * kN, 13);
  const auto bias = random_vec(kN, 14);
  std::vector<float> want(kM * kN, 0.0f);
  gemm_naive(a.data(), b.data(), want.data(), kM, kN, kK);
  add_row_bias(want.data(), bias.data(), kM, kN);

  GemmEpilogue ep;
  ep.bias_n = bias.data();
  std::vector<float> got(kM * kN, -7.0f);
  gemm_ex(a.data(), b.data(), got.data(), kM, kN, kK, /*accumulate=*/false, ep);
  for (int i = 0; i < kM * kN; ++i) EXPECT_NEAR(got[i], want[i], 1e-4f) << i;
}

TEST(GemmEx, FusedRowBiasAddsPerRow) {
  // bias_m is the conv path: one bias per output row (out-channel).
  constexpr int kM = 6, kN = 18, kK = 11;
  const auto a = random_vec(kM * kK, 21);
  const auto b = random_vec(kK * kN, 22);
  const auto bias = random_vec(kM, 23);
  std::vector<float> want(kM * kN, 0.0f);
  gemm_naive(a.data(), b.data(), want.data(), kM, kN, kK);
  for (int i = 0; i < kM; ++i) {
    for (int j = 0; j < kN; ++j) want[i * kN + j] += bias[i];
  }
  GemmEpilogue ep;
  ep.bias_m = bias.data();
  std::vector<float> got(kM * kN);
  gemm_ex(a.data(), b.data(), got.data(), kM, kN, kK, false, ep);
  for (int i = 0; i < kM * kN; ++i) EXPECT_NEAR(got[i], want[i], 1e-4f) << i;
}

TEST(GemmEx, FusedReluMatchesSeparateActivation) {
  constexpr int kM = 19, kN = 31, kK = 67;
  const auto a = random_vec(kM * kK, 31);
  const auto b = random_vec(kK * kN, 32);
  std::vector<float> want(kM * kN, 0.0f);
  gemm_naive(a.data(), b.data(), want.data(), kM, kN, kK);
  relu_inplace(want.data(), kM * kN);

  GemmEpilogue ep;
  ep.act = EpilogueAct::kRelu;
  std::vector<float> got(kM * kN);
  gemm_ex(a.data(), b.data(), got.data(), kM, kN, kK, false, ep);
  for (int i = 0; i < kM * kN; ++i) EXPECT_NEAR(got[i], want[i], 1e-5f) << i;
}

TEST(GemmEx, FusedGeluMatchesDoubleReference) {
  // The fused fc1 epilogue against the GEMM, the bias and then GELU in
  // double.
  constexpr int kM = 33, kN = 20, kK = 129;
  const auto a = random_vec(kM * kK, 41);
  const auto b_t = random_vec(kN * kK, 42);
  const auto bias = random_vec(kN, 43);
  std::vector<float> b(kK * kN);
  for (int j = 0; j < kN; ++j) {
    for (int p = 0; p < kK; ++p) b[p * kN + j] = b_t[j * kK + p];
  }
  std::vector<float> want(kM * kN, 0.0f);
  gemm_naive(a.data(), b.data(), want.data(), kM, kN, kK);
  add_row_bias(want.data(), bias.data(), kM, kN);
  for (float& w : want) w = static_cast<float>(gelu_ref(w));

  GemmEpilogue ep;
  ep.bias_n = bias.data();
  ep.act = EpilogueAct::kGelu;
  std::vector<float> got(kM * kN);
  gemm_bt_ex(a.data(), b_t.data(), got.data(), kM, kN, kK, false, ep);
  for (int i = 0; i < kM * kN; ++i) EXPECT_NEAR(got[i], want[i], 1e-4f) << i;
}

TEST(GemmEx, EpilogueWithAccumulate) {
  constexpr int kM = 10, kN = 22, kK = 30;
  const auto a = random_vec(kM * kK, 51);
  const auto b = random_vec(kK * kN, 52);
  const auto bias = random_vec(kN, 53);
  std::vector<float> want(kM * kN, 2.0f);
  gemm_naive(a.data(), b.data(), want.data(), kM, kN, kK, /*accumulate=*/true);
  add_row_bias(want.data(), bias.data(), kM, kN);

  GemmEpilogue ep;
  ep.bias_n = bias.data();
  std::vector<float> got(kM * kN, 2.0f);
  gemm_ex(a.data(), b.data(), got.data(), kM, kN, kK, /*accumulate=*/true, ep);
  for (int i = 0; i < kM * kN; ++i) EXPECT_NEAR(got[i], want[i], 1e-4f) << i;
}

TEST(GemmStrided, EmbeddedOperandsMatchDense) {
  constexpr int kM = 14, kN = 27, kK = 53;
  constexpr int kLda = kK + 4, kLdb = kN + 6, kLdc = kN + 2;
  const auto a = random_vec(kM * kK, 61);
  const auto b = random_vec(kK * kN, 62);
  std::vector<float> wa(kM * kLda, 9.0f), wb(kK * kLdb, 9.0f);
  std::vector<float> wc(kM * kLdc, 3.0f);
  for (int i = 0; i < kM; ++i) {
    for (int p = 0; p < kK; ++p) wa[i * kLda + p] = a[i * kK + p];
  }
  for (int p = 0; p < kK; ++p) {
    for (int j = 0; j < kN; ++j) wb[p * kLdb + j] = b[p * kN + j];
  }
  std::vector<float> want(kM * kN, 0.0f);
  gemm_naive(a.data(), b.data(), want.data(), kM, kN, kK);

  gemm_strided(wa.data(), kLda, wb.data(), kLdb, wc.data(), kLdc, kM, kN, kK);
  for (int i = 0; i < kM; ++i) {
    for (int j = 0; j < kN; ++j) {
      EXPECT_NEAR(wc[i * kLdc + j], want[i * kN + j], 1e-4f) << i << "," << j;
    }
  }
  // Gutter columns between logical rows must be untouched.
  for (int i = 0; i < kM; ++i) {
    for (int j = kN; j < kLdc; ++j) EXPECT_EQ(wc[i * kLdc + j], 3.0f);
  }
}

TEST(GemmStrided, TransposedBStridedMatchesDense) {
  constexpr int kM = 11, kN = 9, kK = 40;
  constexpr int kLda = kK + 1, kLdb = kK + 8, kLdc = kN + 5;
  const auto a = random_vec(kM * kK, 71);
  const auto b_t = random_vec(kN * kK, 72);
  std::vector<float> wa(kM * kLda, 0.0f), wbt(kN * kLdb, 0.0f);
  std::vector<float> wc(kM * kLdc, 0.0f);
  for (int i = 0; i < kM; ++i) {
    for (int p = 0; p < kK; ++p) wa[i * kLda + p] = a[i * kK + p];
  }
  for (int j = 0; j < kN; ++j) {
    for (int p = 0; p < kK; ++p) wbt[j * kLdb + p] = b_t[j * kK + p];
  }
  std::vector<float> want(kM * kN, 0.0f);
  gemm_bt(a.data(), b_t.data(), want.data(), kM, kN, kK);

  gemm_bt_strided(wa.data(), kLda, wbt.data(), kLdb, wc.data(), kLdc, kM, kN,
                  kK);
  for (int i = 0; i < kM; ++i) {
    for (int j = 0; j < kN; ++j) {
      EXPECT_NEAR(wc[i * kLdc + j], want[i * kN + j], 1e-4f) << i << "," << j;
    }
  }
}

// ------------------------------------- GEMM kernel variants and invariance
//
// Every micro-kernel the host runs (gemm_kernels(), best first) is held
// to gemm_naive within its ISA's tolerance, through every entry point.
// Within one ISA, results must not depend on the thread count or on
// which other rows share the call: every path a row can take computes
// each C element as the same chain in K order.

/// Worst |C - naive| per unit of K each ISA path may show on inputs in
/// [-1, 1]. The portable path rounds like gemm_naive and departs from it
/// only where a KC=256 block restarts the chain; the FMA paths also skip
/// the product's rounding on every step. Measured worst on x86-64:
/// portable 0 (k <= 256) and 4.8e-8 (k > 256); avx2 and avx512 6.0e-8.
float isa_tolerance_per_k(const std::string& isa) {
  if (isa == "portable") return 2.5e-7f;
  return 5e-7f;  // "avx2", "avx512"
}

struct GemmCase {
  int m, n, k;
};

/// Shapes straddling every kernel's MR (4, 6, 8) and NR (16, 32), the
/// KC=256 block, the shallow-K bound (k <= 32) and the small-problem
/// bound (m·n·k <= 4096).
const std::vector<GemmCase>& isa_cases() {
  static const std::vector<GemmCase> cases = {
      {1, 1, 1},     {3, 15, 7},    {5, 17, 31},   {6, 16, 32},
      {7, 31, 33},   {8, 32, 64},   {9, 33, 255},  {13, 47, 256},
      {25, 65, 257}, {4, 32, 32},   {4, 32, 33},   {1, 16, 256},
      {1, 16, 257},  {97, 40, 12},  {130, 70, 300}, {257, 48, 513},
  };
  return cases;
}

enum class GemmEntry { kPlain, kTransposed, kStrided, kPrepacked };
constexpr GemmEntry kAllEntries[] = {GemmEntry::kPlain, GemmEntry::kTransposed,
                                     GemmEntry::kStrided,
                                     GemmEntry::kPrepacked};

const char* entry_name(GemmEntry e) {
  switch (e) {
    case GemmEntry::kPlain: return "plain";
    case GemmEntry::kTransposed: return "transposed";
    case GemmEntry::kStrided: return "strided";
    case GemmEntry::kPrepacked: return "prepacked";
  }
  return "?";
}

/// C = epilogue(A·B (+ c0 if accumulate)) through one entry point on
/// `kernel`. A is [m,k] and B [k,n], dense row-major; the Bᵀ entries get
/// the transpose, the strided entry wider row pitches. Returns dense C.
std::vector<float> run_entry(const GemmKernel& kernel, GemmEntry entry,
                             const float* a, const std::vector<float>& b,
                             int m, int n, int k, bool accumulate = false,
                             const float* c0 = nullptr,
                             const GemmEpilogue& ep = {}) {
  std::vector<float> b_t(static_cast<std::size_t>(n * k));
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) b_t[j * k + p] = b[p * n + j];
  }
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  if (c0 != nullptr) std::copy(c0, c0 + m * n, c.begin());
  switch (entry) {
    case GemmEntry::kPlain:
      gemm_with_kernel(kernel, a, k, b.data(), n, false, c.data(), n, m, n, k,
                       accumulate, ep);
      break;
    case GemmEntry::kTransposed:
      gemm_with_kernel(kernel, a, k, b_t.data(), k, true, c.data(), n, m, n,
                       k, accumulate, ep);
      break;
    case GemmEntry::kStrided: {
      const int lda = k + 3, ldb = n + 5, ldc = n + 7;
      std::vector<float> wa(static_cast<std::size_t>(m * lda), 7.0f);
      std::vector<float> wb(static_cast<std::size_t>(k * ldb), 7.0f);
      std::vector<float> wc(static_cast<std::size_t>(m * ldc), 7.0f);
      for (int i = 0; i < m; ++i) {
        std::copy(a + i * k, a + i * k + k, wa.begin() + i * lda);
        std::copy(c.begin() + i * n, c.begin() + i * n + n,
                  wc.begin() + i * ldc);
      }
      for (int p = 0; p < k; ++p) {
        std::copy(b.begin() + p * n, b.begin() + p * n + n,
                  wb.begin() + p * ldb);
      }
      gemm_with_kernel(kernel, wa.data(), lda, wb.data(), ldb, false,
                       wc.data(), ldc, m, n, k, accumulate, ep);
      for (int i = 0; i < m; ++i) {
        std::copy(wc.begin() + i * ldc, wc.begin() + i * ldc + n,
                  c.begin() + i * n);
        for (int j = n; j < ldc; ++j) EXPECT_EQ(wc[i * ldc + j], 7.0f);
      }
      break;
    }
    case GemmEntry::kPrepacked: {
      const GemmPackedB packed(kernel, b_t.data(), k, true, n, k);
      gemm_prepacked_ex(a, k, packed, c.data(), n, m, accumulate, ep);
      break;
    }
  }
  return c;
}

bool bit_equal(const float* x, const float* y, std::size_t n) {
  return std::memcmp(x, y, n * sizeof(float)) == 0;
}

TEST(GemmIsa, DispatchesTheBestHostKernel) {
  const auto kernels = gemm_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, gemm_isa());
  EXPECT_STREQ(kernels.back().name, "portable");
  for (const GemmKernel& kernel : kernels) {
    EXPECT_NE(kernel.fn, nullptr);
    EXPECT_GT(kernel.mr, 0);
    EXPECT_GT(kernel.nr, 0);
  }
}

TEST(GemmIsa, PublicEntryPointsRunTheDispatchedKernel) {
  constexpr int kM = 37, kN = 70, kK = 300;
  const auto a = random_vec(kM * kK, 81);
  const auto b = random_vec(kK * kN, 82);
  const GemmKernel& best = gemm_kernels().front();
  const auto want = run_entry(best, GemmEntry::kPlain, a.data(), b, kM, kN, kK);
  std::vector<float> got(want.size());
  gemm(a.data(), b.data(), got.data(), kM, kN, kK);
  EXPECT_TRUE(bit_equal(got.data(), want.data(), want.size()));
  const GemmPackedB packed(b.data(), kN, false, kN, kK);
  EXPECT_STREQ(packed.kernel().name, best.name);
  gemm_prepacked_ex(a.data(), kK, packed, got.data(), kN, kM, false, {});
  EXPECT_TRUE(bit_equal(got.data(), want.data(), want.size()));
}

TEST(GemmIsa, EveryHostKernelMatchesNaiveWithinItsTolerance) {
  for (const GemmKernel& kernel : gemm_kernels()) {
    SCOPED_TRACE(kernel.name);
    const float tol = isa_tolerance_per_k(kernel.name);
    for (const GemmCase& gc : isa_cases()) {
      const auto a = random_vec(static_cast<std::size_t>(gc.m * gc.k), 91);
      const auto b = random_vec(static_cast<std::size_t>(gc.k * gc.n), 92);
      std::vector<float> want(static_cast<std::size_t>(gc.m * gc.n));
      gemm_naive(a.data(), b.data(), want.data(), gc.m, gc.n, gc.k);
      for (const GemmEntry entry : kAllEntries) {
        const auto got =
            run_entry(kernel, entry, a.data(), b, gc.m, gc.n, gc.k);
        float worst = 0.0f;
        for (std::size_t i = 0; i < want.size(); ++i) {
          worst = std::max(worst, std::fabs(got[i] - want[i]));
        }
        EXPECT_LE(worst, tol * static_cast<float>(gc.k))
            << entry_name(entry) << " m=" << gc.m << " n=" << gc.n
            << " k=" << gc.k;
      }
    }
  }
}

TEST(GemmInvariance, BitIdenticalAtOneTwoAndAllThreads) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  const int threads[] = {1, 2, omp_get_num_procs()};
  const GemmCase cases[] = {{257, 576, 192}, {200, 100, 513}, {300, 70, 20}};
  GemmEpilogue ep;
  const auto bias = random_vec(576, 93);
  ep.bias_n = bias.data();
  ep.act = EpilogueAct::kGelu;
  for (const GemmKernel& kernel : gemm_kernels()) {
    SCOPED_TRACE(kernel.name);
    for (const GemmCase& gc : cases) {
      const auto a = random_vec(static_cast<std::size_t>(gc.m * gc.k), 94);
      const auto b = random_vec(static_cast<std::size_t>(gc.k * gc.n), 95);
      for (const GemmEntry entry : {GemmEntry::kPlain, GemmEntry::kPrepacked}) {
        std::vector<float> ref;
        for (const int t : threads) {
          omp_set_num_threads(t);
          const auto got =
              run_entry(kernel, entry, a.data(), b, gc.m, gc.n, gc.k, false,
                        nullptr, ep);
          if (ref.empty()) {
            ref = got;
          } else {
            EXPECT_TRUE(bit_equal(got.data(), ref.data(), ref.size()))
                << entry_name(entry) << " m=" << gc.m << " threads=" << t;
          }
        }
      }
    }
  }
  omp_set_num_threads(saved);
#else
  GTEST_SKIP() << "built without OpenMP";
#endif
}

TEST(GemmInvariance, RowOfOneRowCallEqualsRowOfBatchedCall) {
  // (n, k): small-problem path at m=1 (n·k <= 4096) but packed at
  // m=257, shallow K, a KC straddle, and a plain mid-size shape.
  constexpr int kRows = 257;
  const std::pair<int, int> shapes[] = {{16, 200}, {40, 12}, {70, 300},
                                        {33, 64}};
  for (const GemmKernel& kernel : gemm_kernels()) {
    SCOPED_TRACE(kernel.name);
    for (const auto& [n, k] : shapes) {
      const auto a = random_vec(static_cast<std::size_t>(kRows * k), 96);
      const auto b = random_vec(static_cast<std::size_t>(k * n), 97);
      const auto c0 = random_vec(static_cast<std::size_t>(kRows * n), 98);
      const auto bias = random_vec(static_cast<std::size_t>(n), 99);
      GemmEpilogue ep;
      ep.bias_n = bias.data();
      ep.act = EpilogueAct::kGelu;
      for (const GemmEntry entry : kAllEntries) {
        const auto full = run_entry(kernel, entry, a.data(), b, kRows, n, k,
                                    true, c0.data(), ep);
        for (int i = 0; i < kRows; ++i) {
          const auto row = run_entry(kernel, entry, a.data() + i * k, b, 1, n,
                                     k, true, c0.data() + i * n, ep);
          ASSERT_TRUE(bit_equal(row.data(), full.data() + i * n,
                                static_cast<std::size_t>(n)))
              << entry_name(entry) << " n=" << n << " k=" << k
              << " row=" << i;
        }
      }
    }
  }
}

// ------------------------------------------------------------------- GELU
//
// Both GEMM epilogues run the one vector GELU of nn/gelu.hpp on their
// kernel entry's ISA. These helpers drive it through a kernel entry
// with A = 0, so the epilogue sees exactly the column bias: 0 + x = x.

/// GELU of each x, as one row of the fp32 epilogue of `kernel`.
std::vector<float> fp32_epilogue_gelu(const GemmKernel& kernel,
                                      const std::vector<float>& x) {
  const auto n = static_cast<std::int64_t>(x.size());
  const std::vector<float> a(1, 0.0f);
  const std::vector<float> b(x.size(), 0.0f);
  std::vector<float> c(x.size());
  GemmEpilogue ep;
  ep.bias_n = x.data();
  ep.act = EpilogueAct::kGelu;
  gemm_with_kernel(kernel, a.data(), 1, b.data(), n, false, c.data(), n, 1, n,
                   1, false, ep);
  return c;
}

/// GELU of each x, as one row of the int8 dequant epilogue of `kernel`.
std::vector<float> int8_epilogue_gelu(const QGemmKernel& kernel,
                                      const std::vector<float>& x) {
  constexpr std::int64_t kK = 4;
  const auto n = static_cast<std::int64_t>(x.size());
  const std::vector<std::int8_t> a(kK, 0);
  const std::vector<std::int8_t> b_t(x.size() * kK, 0);
  const QGemmPackedB packed(kernel, b_t.data(), n, kK);
  std::vector<float> c(x.size());
  QGemmEpilogue ep;
  ep.bias_n = x.data();
  ep.act = QGemmEpilogue::Act::kGelu;
  qgemm_prepacked_dequant(a.data(), packed, c.data(), 1, ep);
  return c;
}

/// 10⁶ evenly spaced points in [-10, 10], then ±0, denormals, the
/// smallest normals, ±FLT_MAX and NaN.
std::vector<float> gelu_sweep_points() {
  constexpr int kPoints = 1000000;
  std::vector<float> x;
  x.reserve(kPoints + 16);
  for (int i = 0; i < kPoints; ++i) {
    x.push_back(static_cast<float>(-10.0 + 20.0 * i / (kPoints - 1)));
  }
  for (const float s : {0.0f, FLT_TRUE_MIN, 1e-40f, FLT_MIN, FLT_MAX}) {
    x.push_back(s);
    x.push_back(-s);
  }
  x.push_back(std::nanf(""));
  return x;
}

/// Worst |got - gelu_ref| / max(1, |ref|) over finite x; fails on a NaN
/// from a finite x or a number from a NaN.
double worst_gelu_error(const std::vector<float>& x,
                        const std::vector<float>& got) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "NaN in, " << got[i] << " out";
      continue;
    }
    EXPECT_FALSE(std::isnan(got[i])) << "x=" << x[i];
    const double want = gelu_ref(x[i]);
    worst = std::max(worst, std::fabs(static_cast<double>(got[i]) - want) /
                                std::max(1.0, std::fabs(want)));
  }
  return worst;
}

TEST(Gelu, EveryEpilogueIsWithin2e6OfDoubleReference) {
  const std::vector<float> x = gelu_sweep_points();
  for (const GemmKernel& kernel : gemm_kernels()) {
    EXPECT_LE(worst_gelu_error(x, fp32_epilogue_gelu(kernel, x)), 2e-6)
        << "fp32 " << kernel.name;
  }
  for (const QGemmKernel& kernel : qgemm_kernels()) {
    EXPECT_LE(worst_gelu_error(x, int8_epilogue_gelu(kernel, x)), 2e-6)
        << "int8 " << kernel.name;
  }
}

TEST(Gelu, Fp32AndInt8EpiloguesRoundAlike) {
  // The dispatched entries of both tables share an ISA class (both use
  // FMA, or neither does), so the one body gives the same bits.
  const std::vector<float> x = gelu_sweep_points();
  const auto fp32 = fp32_epilogue_gelu(gemm_kernels().front(), x);
  const auto int8 = int8_epilogue_gelu(qgemm_kernels().front(), x);
  EXPECT_TRUE(bit_equal(fp32.data(), int8.data(), x.size()))
      << gemm_kernels().front().name << " vs " << qgemm_kernels().front().name;
}

TEST(Gelu, ColumnBitsDoNotDependOnTailPosition) {
  // At n = 40, columns 32..39 sit in an N % NR tail (NR is 16 or 32);
  // at n = 64 they sit in full tiles. The first 40 columns of both
  // calls share A, B and the bias, so they must match bitwise.
  constexpr int kM = 9, kK = 70, kNarrow = 40, kWide = 64;
  const auto a = random_vec(kM * kK, 301);
  const auto b_wide = random_vec(kK * kWide, 302);
  const auto bias = random_vec(kWide, 303);
  std::vector<float> b_narrow(kK * kNarrow);
  for (int p = 0; p < kK; ++p) {
    std::copy(b_wide.begin() + p * kWide, b_wide.begin() + p * kWide + kNarrow,
              b_narrow.begin() + p * kNarrow);
  }
  GemmEpilogue ep;
  ep.bias_n = bias.data();
  ep.act = EpilogueAct::kGelu;
  for (const GemmKernel& kernel : gemm_kernels()) {
    for (const GemmEntry entry : kAllEntries) {
      const auto wide = run_entry(kernel, entry, a.data(), b_wide, kM, kWide,
                                  kK, false, nullptr, ep);
      const auto narrow = run_entry(kernel, entry, a.data(), b_narrow, kM,
                                    kNarrow, kK, false, nullptr, ep);
      for (int i = 0; i < kM; ++i) {
        EXPECT_TRUE(bit_equal(narrow.data() + i * kNarrow,
                              wide.data() + i * kWide, kNarrow))
            << "fp32 " << kernel.name << " " << entry_name(entry)
            << " row=" << i;
      }
    }
  }

  core::Rng rng(304);
  std::vector<std::int8_t> qa(kM * kK), qb(kWide * kK);
  for (auto& v : qa) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : qb) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  std::vector<float> scale_m(kM), scale_n(kWide);
  for (float& s : scale_m) s = rng.next_float() * 0.01f + 1e-4f;
  for (float& s : scale_n) s = rng.next_float() * 0.01f + 1e-4f;
  QGemmEpilogue qep;
  qep.scale_m = scale_m.data();
  qep.scale_n = scale_n.data();
  qep.bias_n = bias.data();
  qep.act = QGemmEpilogue::Act::kGelu;
  for (const QGemmKernel& kernel : qgemm_kernels()) {
    std::vector<float> wide(kM * kWide), narrow(kM * kNarrow);
    // Bᵀ is [n, k]: the narrow operand is the wide one's first 40 rows.
    qgemm_prepacked_dequant(qa.data(),
                            QGemmPackedB(kernel, qb.data(), kWide, kK),
                            wide.data(), kM, qep);
    qgemm_prepacked_dequant(qa.data(),
                            QGemmPackedB(kernel, qb.data(), kNarrow, kK),
                            narrow.data(), kM, qep);
    for (int i = 0; i < kM; ++i) {
      EXPECT_TRUE(bit_equal(narrow.data() + i * kNarrow,
                            wide.data() + i * kWide, kNarrow))
          << "int8 " << kernel.name << " row=" << i;
    }
  }
}

// ------------------------------------------------------------ activations

TEST(Activations, ReluClampsNegatives) {
  std::vector<float> x = {-1.0f, 0.0f, 2.0f};
  relu_inplace(x.data(), 3);
  EXPECT_EQ(x[0], 0.0f);
  EXPECT_EQ(x[1], 0.0f);
  EXPECT_EQ(x[2], 2.0f);
}

TEST(Activations, GeluKnownValues) {
  const std::vector<float> x =
      fp32_epilogue_gelu(gemm_kernels().front(), {0.0f, 1.0f, -1.0f, 3.0f});
  EXPECT_NEAR(x[0], 0.0f, 1e-6f);
  EXPECT_NEAR(x[1], 0.841345f, 1e-4f);
  EXPECT_NEAR(x[2], -0.158655f, 1e-4f);
  EXPECT_NEAR(x[3], 2.99595f, 1e-4f);
}

TEST(Activations, SoftmaxRowsSumToOne) {
  auto x = random_vec(8 * 33, 7);
  for (float& v : x) v *= 20.0f;  // stress stability
  softmax_rows(x.data(), 8, 33);
  for (int r = 0; r < 8; ++r) {
    double sum = 0.0;
    for (int i = 0; i < 33; ++i) {
      const float v = x[static_cast<std::size_t>(r * 33 + i)];
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      sum += static_cast<double>(v);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Activations, SoftmaxHandlesLargeMagnitudes) {
  std::vector<float> x = {1000.0f, 1000.0f, -1000.0f};
  softmax_rows(x.data(), 1, 3);
  EXPECT_NEAR(x[0], 0.5f, 1e-5f);
  EXPECT_NEAR(x[1], 0.5f, 1e-5f);
  EXPECT_NEAR(x[2], 0.0f, 1e-6f);
}

TEST(Activations, SigmoidRange) {
  std::vector<float> x = {-10.0f, 0.0f, 10.0f};
  sigmoid_inplace(x);
  EXPECT_LT(x[0], 0.001f);
  EXPECT_NEAR(x[1], 0.5f, 1e-6f);
  EXPECT_GT(x[2], 0.999f);
}

// ------------------------------------------------------------------- norm

TEST(Norm, LayernormProducesZeroMeanUnitVar) {
  constexpr int kRows = 5;
  constexpr int kDim = 64;
  auto x = random_vec(kRows * kDim, 8);
  std::vector<float> y(kRows * kDim);
  std::vector<float> gamma(kDim, 1.0f);
  std::vector<float> beta(kDim, 0.0f);
  layernorm_rows(x.data(), y.data(), kRows, kDim, gamma.data(), beta.data());
  for (int r = 0; r < kRows; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int i = 0; i < kDim; ++i) {
      mean += static_cast<double>(y[static_cast<std::size_t>(r * kDim + i)]);
    }
    mean /= kDim;
    for (int i = 0; i < kDim; ++i) {
      const double d =
          static_cast<double>(y[static_cast<std::size_t>(r * kDim + i)]) - mean;
      var += d * d;
    }
    var /= kDim;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Norm, LayernormAppliesGainAndShift) {
  std::vector<float> x = {1.0f, 3.0f};  // mean 2, std 1
  std::vector<float> y(2);
  std::vector<float> gamma = {2.0f, 2.0f};
  std::vector<float> beta = {10.0f, 10.0f};
  layernorm_rows(x.data(), y.data(), 1, 2, gamma.data(), beta.data());
  EXPECT_NEAR(y[0], 10.0f - 2.0f, 1e-3f);
  EXPECT_NEAR(y[1], 10.0f + 2.0f, 1e-3f);
}

TEST(Norm, BatchnormFoldsRunningStats) {
  constexpr int kC = 2;
  constexpr int kHW = 4;
  std::vector<float> x(kC * kHW);
  for (int i = 0; i < kC * kHW; ++i) x[static_cast<std::size_t>(i)] = static_cast<float>(i);
  std::vector<float> y(kC * kHW);
  const std::vector<float> mean = {1.5f, 5.5f};
  const std::vector<float> var = {1.25f, 1.25f};
  const std::vector<float> gamma = {1.0f, 2.0f};
  const std::vector<float> beta = {0.0f, 1.0f};
  batchnorm_nchw(x.data(), y.data(), 1, kC, kHW, mean.data(), var.data(),
                 gamma.data(), beta.data(), 0.0f);
  // Channel 0: (x - 1.5)/sqrt(1.25)
  EXPECT_NEAR(y[0], -1.3416f, 1e-3f);
  EXPECT_NEAR(y[3], 1.3416f, 1e-3f);
  // Channel 1: 2*(x - 5.5)/sqrt(1.25) + 1
  EXPECT_NEAR(y[4], 2.0f * -1.3416f + 1.0f, 1e-3f);
}

// ------------------------------------------------------------------- conv

struct ConvCase {
  std::int64_t n, c, h, w, out_c, kernel, stride, padding;
};

class ConvShapes : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvShapes, Im2colMatchesDirect) {
  const ConvCase& cc = GetParam();
  Tensor input(Shape{cc.n, cc.c, cc.h, cc.w}, DType::kF32);
  core::Rng rng(11);
  for (float& v : input.f32_span()) v = rng.next_float() - 0.5f;
  Tensor weight(Shape{cc.out_c, cc.c * cc.kernel * cc.kernel}, DType::kF32);
  for (float& v : weight.f32_span()) v = rng.next_float() - 0.5f;
  std::vector<float> bias(static_cast<std::size_t>(cc.out_c));
  for (float& v : bias) v = rng.next_float();

  const Conv2dParams params{cc.c, cc.out_c, cc.kernel, cc.stride, cc.padding};
  Tensor scratch;
  Tensor fast = conv2d(input, weight, bias.data(), params, scratch);
  Tensor slow = conv2d_naive(input, weight, bias.data(), params);
  EXPECT_EQ(fast.shape(), slow.shape());
  EXPECT_LT(tensor::max_abs_diff(fast, slow), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvShapes,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{1, 3, 9, 7, 2, 3, 2, 1},
                      ConvCase{1, 4, 8, 8, 8, 1, 1, 0},
                      ConvCase{1, 3, 12, 12, 2, 7, 2, 3},
                      ConvCase{2, 2, 6, 6, 3, 3, 2, 0},
                      // Batch-parallel path with padding and odd
                      // geometry: each batch item gets its own scratch
                      // slot, all must match the direct loop.
                      ConvCase{4, 3, 9, 9, 5, 3, 2, 1},
                      ConvCase{3, 2, 7, 5, 4, 5, 1, 2},
                      ConvCase{5, 1, 6, 6, 2, 3, 1, 1}));

TEST(Conv, ScratchReuseAcrossBatchSizes) {
  // The per-worker scratch layout depends on the batch size; reusing
  // one scratch tensor across different batches must stay correct.
  core::Rng rng(29);
  Tensor weight(Shape{3, 2 * 3 * 3}, DType::kF32);
  for (float& v : weight.f32_span()) v = rng.next_float() - 0.5f;
  const Conv2dParams params{2, 3, 3, 1, 1};
  Tensor scratch;
  for (std::int64_t batch : {4, 1, 3}) {
    Tensor input(Shape{batch, 2, 6, 6}, DType::kF32);
    for (float& v : input.f32_span()) v = rng.next_float() - 0.5f;
    Tensor fast = conv2d(input, weight, nullptr, params, scratch);
    Tensor slow = conv2d_naive(input, weight, nullptr, params);
    EXPECT_LT(tensor::max_abs_diff(fast, slow), 1e-3f) << "batch " << batch;
  }
}

TEST(Conv, OutExtentFormula) {
  EXPECT_EQ(conv_out_extent(224, 7, 2, 3), 112);
  EXPECT_EQ(conv_out_extent(112, 3, 2, 1), 56);
  EXPECT_EQ(conv_out_extent(5, 3, 1, 0), 3);
  EXPECT_EQ(conv_out_extent(5, 1, 1, 0), 5);
}

// Regression: degenerate geometry used to slip through and produce a
// zero/negative output extent that blew up later as a bogus tensor
// shape; it must fail fast at the formula with a clear message.
TEST(ConvDeathTest, KernelLargerThanPaddedInputIsRejected) {
  EXPECT_DEATH(conv_out_extent(4, 7, 1, 0), "kernel exceeds padded input");
  EXPECT_DEATH(conv_out_extent(2, 5, 1, 1), "kernel exceeds padded input");
}

TEST(ConvDeathTest, NonPositiveStrideIsRejected) {
  EXPECT_DEATH(conv_out_extent(8, 3, 0, 1), "stride must be >= 1");
  EXPECT_DEATH(conv_out_extent(8, 3, -2, 1), "stride must be >= 1");
}

TEST(ConvDeathTest, NonPositiveExtentsAreRejected) {
  EXPECT_DEATH(conv_out_extent(0, 1, 1, 0), "in>=1");
  EXPECT_DEATH(conv_out_extent(8, 0, 1, 0), "in>=1");
  EXPECT_DEATH(conv_out_extent(8, 3, 1, -1), "in>=1");
}

// Regression: the int8 conv sized its im2row scratch from the
// construction geometry but expanded the input's actual h and w, so a
// larger input wrote past the buffer. Both precisions now reject an
// input whose spatial size differs from the construction geometry.
TEST(ConvDeathTest, ConvBnReluRejectsMismatchedSpatialSize) {
  for (const bool int8 : {false, true}) {
    ConvBnRelu layer("conv", Conv2dParams{2, 4, 3, 1, 1}, 6, 6, true);
    if (int8) layer.quantize();
    const Tensor larger = Tensor::full(Shape{1, 2, 9, 9}, 0.5f);
    EXPECT_DEATH(layer.forward(larger), "conv input geometry mismatch")
        << (int8 ? "int8" : "fp32");
    const Tensor smaller = Tensor::full(Shape{1, 2, 6, 5}, 0.5f);
    EXPECT_DEATH(layer.forward(smaller), "conv input geometry mismatch")
        << (int8 ? "int8" : "fp32");
  }
}

TEST(Conv, MaxPoolPicksWindowMax) {
  Tensor input(Shape{1, 1, 4, 4}, DType::kF32);
  for (int i = 0; i < 16; ++i) input.f32()[i] = static_cast<float>(i);
  Tensor pooled = maxpool2d(input, 2, 2, 0);
  EXPECT_EQ(pooled.shape(), Shape({1, 1, 2, 2}));
  EXPECT_EQ(pooled.f32()[0], 5.0f);
  EXPECT_EQ(pooled.f32()[1], 7.0f);
  EXPECT_EQ(pooled.f32()[2], 13.0f);
  EXPECT_EQ(pooled.f32()[3], 15.0f);
}

TEST(Conv, MaxPoolIgnoresPaddingRegion) {
  Tensor input(Shape{1, 1, 2, 2}, DType::kF32);
  for (int i = 0; i < 4; ++i) input.f32()[i] = -1.0f - static_cast<float>(i);
  Tensor pooled = maxpool2d(input, 3, 2, 1);
  // All window values negative; padding must not contribute zeros.
  EXPECT_EQ(pooled.f32()[0], -1.0f);
}

TEST(Conv, GlobalAvgPool) {
  Tensor input(Shape{2, 2, 2, 2}, DType::kF32);
  for (int i = 0; i < 16; ++i) input.f32()[i] = static_cast<float>(i);
  Tensor pooled = global_avgpool(input);
  EXPECT_EQ(pooled.shape(), Shape({2, 2}));
  EXPECT_NEAR(pooled.f32()[0], 1.5f, 1e-6f);   // mean of 0..3
  EXPECT_NEAR(pooled.f32()[3], 13.5f, 1e-6f);  // mean of 12..15
}

// -------------------------------------------------------------- attention

TEST(Attention, UniformScoresAverageValues) {
  // With Q=K=0 the scores are uniform, so output = mean of V rows.
  constexpr std::int64_t kTokens = 4;
  constexpr std::int64_t kDim = 6;
  constexpr std::int64_t kHeads = 2;
  std::vector<float> qkv(static_cast<std::size_t>(kTokens * 3 * kDim), 0.0f);
  for (std::int64_t t = 0; t < kTokens; ++t) {
    for (std::int64_t d = 0; d < kDim; ++d) {
      qkv[static_cast<std::size_t>(t * 3 * kDim + 2 * kDim + d)] =
          static_cast<float>(t);  // V row t = t everywhere
    }
  }
  std::vector<float> out(static_cast<std::size_t>(kTokens * kDim));
  std::vector<float> scratch(static_cast<std::size_t>(kHeads * kTokens * kTokens));
  self_attention(qkv.data(), out.data(), scratch.data(), kTokens, kDim, kHeads);
  for (float v : out) EXPECT_NEAR(v, 1.5f, 1e-5f);  // mean of 0,1,2,3
}

TEST(Attention, SharpQKSelectsMatchingValue) {
  // Orthogonal one-hot keys with large scale make attention ~hard argmax.
  constexpr std::int64_t kTokens = 3;
  constexpr std::int64_t kDim = 3;
  std::vector<float> qkv(static_cast<std::size_t>(kTokens * 3 * kDim), 0.0f);
  const float scale = 50.0f;
  for (std::int64_t t = 0; t < kTokens; ++t) {
    // Q_t = K_t = scale * e_t; token t attends to itself.
    qkv[static_cast<std::size_t>(t * 3 * kDim + t)] = scale;
    qkv[static_cast<std::size_t>(t * 3 * kDim + kDim + t)] = scale;
    for (std::int64_t d = 0; d < kDim; ++d) {
      qkv[static_cast<std::size_t>(t * 3 * kDim + 2 * kDim + d)] =
          static_cast<float>(10 * (t + 1));
    }
  }
  std::vector<float> out(static_cast<std::size_t>(kTokens * kDim));
  std::vector<float> scratch(static_cast<std::size_t>(kTokens * kTokens));
  self_attention(qkv.data(), out.data(), scratch.data(), kTokens, kDim, 1);
  for (std::int64_t t = 0; t < kTokens; ++t) {
    EXPECT_NEAR(out[static_cast<std::size_t>(t * kDim)],
                static_cast<float>(10 * (t + 1)), 0.5f);
  }
}

TEST(Attention, OutputIsConvexCombinationOfValues) {
  constexpr std::int64_t kTokens = 5;
  constexpr std::int64_t kDim = 8;
  constexpr std::int64_t kHeads = 4;
  auto qkv = random_vec(static_cast<std::size_t>(kTokens * 3 * kDim), 21);
  // Track V range per (head-dim) column.
  std::vector<float> out(static_cast<std::size_t>(kTokens * kDim));
  std::vector<float> scratch(static_cast<std::size_t>(kHeads * kTokens * kTokens));
  self_attention(qkv.data(), out.data(), scratch.data(), kTokens, kDim, kHeads);
  for (std::int64_t d = 0; d < kDim; ++d) {
    float lo = 1e30f;
    float hi = -1e30f;
    for (std::int64_t t = 0; t < kTokens; ++t) {
      const float v = qkv[static_cast<std::size_t>(t * 3 * kDim + 2 * kDim + d)];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    for (std::int64_t t = 0; t < kTokens; ++t) {
      const float o = out[static_cast<std::size_t>(t * kDim + d)];
      EXPECT_GE(o, lo - 1e-4f);
      EXPECT_LE(o, hi + 1e-4f);
    }
  }
}

TEST(Attention, BatchedMatchesPerImage) {
  // The batched entry point parallelizes over batch×heads with
  // per-thread scratch; results must equal running each image alone.
  constexpr std::int64_t kBatch = 3;
  constexpr std::int64_t kTokens = 7;
  constexpr std::int64_t kDim = 12;
  constexpr std::int64_t kHeads = 3;
  const auto qkv =
      random_vec(static_cast<std::size_t>(kBatch * kTokens * 3 * kDim), 77);
  std::vector<float> batched(static_cast<std::size_t>(kBatch * kTokens * kDim));
  self_attention_batched(qkv.data(), batched.data(), kBatch, kTokens, kDim,
                         kHeads);

  std::vector<float> single(static_cast<std::size_t>(kTokens * kDim));
  std::vector<float> scratch(
      static_cast<std::size_t>(kHeads * kTokens * kTokens));
  for (std::int64_t b = 0; b < kBatch; ++b) {
    self_attention(qkv.data() + b * kTokens * 3 * kDim, single.data(),
                   scratch.data(), kTokens, kDim, kHeads);
    for (std::int64_t i = 0; i < kTokens * kDim; ++i) {
      EXPECT_NEAR(batched[static_cast<std::size_t>(b * kTokens * kDim + i)],
                  single[static_cast<std::size_t>(i)], 1e-5f)
          << "b=" << b << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace harvest::nn
