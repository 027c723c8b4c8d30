#include "nn/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "nn/isa_dispatch.hpp"

namespace harvest::nn {
namespace {

// Cache blocks, shared by every micro-kernel. An MC×KC panel of packed A
// (96×256 floats = 96 KiB) stays L2-resident while KC×NR slivers of
// packed B stream through L1; NC bounds the j-extent of one parallel tile
// so the M×N tile grid has enough tasks for every core even at ViT token
// counts (M ≈ 257). MC and NC are multiples of every kernel's MR and NR.
// KC is also where each C element's accumulation chain restarts, so it
// is part of the numerics, not just of the blocking.
constexpr std::int64_t kMc = 96;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kNc = 512;

// Problems up to this MNK volume run on the calling thread alone: an
// OpenMP team costs more than the arithmetic.
constexpr std::int64_t kSmallProblem = 4096;

// Shallow-K bound: at k <= 32 the cache-blocked macro loop spends a large
// share of the problem on per-block setup (the ViT_Tiny PatchEmbed
// projection, m=256 n=192 k=12, sat at 0.36 MFU). Below it, each thread
// packs one MR-row panel of A at a time and sweeps it across the whole
// packed B (at most padded_n·32 floats, L1/L2-resident).
constexpr std::int64_t kSmallK = 32;

// Largest register tile of any kernel below; sizes stack scratch.
constexpr std::int64_t kMaxMr = 8;
constexpr std::int64_t kMaxNr = 32;

inline float gelu_scalar(float x) {
  constexpr float kInvSqrt2 = 0.70710678118654752440f;
  return x * 0.5f * (1.0f + std::erf(x * kInvSqrt2));
}

inline std::int64_t round_up(std::int64_t x, std::int64_t step) {
  return (x + step - 1) / step * step;
}

/// Pack an mc×kc block of A (row pitch lda) into mr-strided panels:
/// panel r holds rows [r·mr, r·mr+mr) as ap[p·mr + i], zero-padded so
/// the micro-kernel always runs a full mr.
void pack_a(const float* a, std::int64_t lda, float* ap, std::int64_t mc,
            std::int64_t kc, std::int64_t mr) {
  for (std::int64_t i0 = 0; i0 < mc; i0 += mr) {
    const std::int64_t rows = std::min(mr, mc - i0);
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* arow = a + (i0 + r) * lda;
      for (std::int64_t p = 0; p < kc; ++p) ap[p * mr + r] = arow[p];
    }
    for (std::int64_t r = rows; r < mr; ++r) {
      for (std::int64_t p = 0; p < kc; ++p) ap[p * mr + r] = 0.0f;
    }
    ap += kc * mr;
  }
}

/// Pack one kc×nr sliver of row-major B (row pitch ldb) with `cols`
/// valid columns, zero-padded to nr.
void pack_b_panel(const float* b, std::int64_t ldb, float* bp, std::int64_t kc,
                  std::int64_t cols, std::int64_t nr) {
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (std::int64_t j = 0; j < cols; ++j) bp[p * nr + j] = brow[j];
    for (std::int64_t j = cols; j < nr; ++j) bp[p * nr + j] = 0.0f;
  }
}

/// As pack_b_panel, but B is stored transposed ([N,K] row-major): the
/// sliver covers rows j..j+cols, columns p0..p0+kc of Bᵀ.
void pack_bt_panel(const float* b_t, std::int64_t ldb, float* bp,
                   std::int64_t kc, std::int64_t cols, std::int64_t nr) {
  for (std::int64_t j = 0; j < cols; ++j) {
    const float* brow = b_t + j * ldb;
    for (std::int64_t p = 0; p < kc; ++p) bp[p * nr + j] = brow[p];
  }
  for (std::int64_t j = cols; j < nr; ++j) {
    for (std::int64_t p = 0; p < kc; ++p) bp[p * nr + j] = 0.0f;
  }
}

/// Pack the full B operand (plain or transposed) into nr-column panels
/// laid out exactly as the macro loop expects: panel (kb, jp) at offset
/// p0·padded_n + jp·kc·nr. `bpack` must hold round_up(n, nr)·k floats.
void pack_b_panels(std::int64_t nr, const float* b, std::int64_t ldb,
                   bool b_transposed, float* bpack, std::int64_t n,
                   std::int64_t k, bool parallel) {
  const std::int64_t padded_n = round_up(n, nr);
  const std::int64_t num_kb = (k + kKc - 1) / kKc;
  const std::int64_t num_jp = padded_n / nr;

#pragma omp parallel for collapse(2) schedule(static) if (parallel)
  for (std::int64_t kb = 0; kb < num_kb; ++kb) {
    for (std::int64_t jp = 0; jp < num_jp; ++jp) {
      const std::int64_t p0 = kb * kKc;
      const std::int64_t kc = std::min(kKc, k - p0);
      const std::int64_t j0 = jp * nr;
      const std::int64_t cols = std::min(nr, n - j0);
      float* dst = bpack + p0 * padded_n + jp * kc * nr;
      if (b_transposed) {
        pack_bt_panel(b + j0 * ldb + p0, ldb, dst, kc, cols, nr);
      } else {
        pack_b_panel(b + p0 * ldb + j0, ldb, dst, kc, cols, nr);
      }
    }
  }
}

/// Tile-row store shared by every kernel: C = acc (+ C), then the
/// epilogue terms in a fixed order. Each optional term is a separate
/// unswitched pass over the L1-hot row (each one vectorizes) instead of
/// a branchy per-element apply.
template <int kNr>
HARVEST_FORCE_INLINE void store_row(float* crow, const float* accr,
                                    std::int64_t nr, bool accumulate,
                                    const GemmEpilogue* ep, std::int64_t i,
                                    std::int64_t j0) {
  float v[kNr];
  if (accumulate) {
    for (std::int64_t j = 0; j < nr; ++j) v[j] = accr[j] + crow[j];
  } else {
    for (std::int64_t j = 0; j < nr; ++j) v[j] = accr[j];
  }
  if (ep != nullptr) {
    if (ep->bias_n != nullptr) {
      const float* bn = ep->bias_n + j0;
      for (std::int64_t j = 0; j < nr; ++j) v[j] += bn[j];
    }
    if (ep->bias_m != nullptr) {
      const float bm = ep->bias_m[i];
      for (std::int64_t j = 0; j < nr; ++j) v[j] += bm;
    }
    if (ep->add_c != nullptr) {
      const float* ar = ep->add_c + i * ep->add_ld + j0;
      for (std::int64_t j = 0; j < nr; ++j) v[j] += ar[j];
    }
    switch (ep->act) {
      case EpilogueAct::kNone: break;
      case EpilogueAct::kRelu:
        for (std::int64_t j = 0; j < nr; ++j) v[j] = std::max(0.0f, v[j]);
        break;
      case EpilogueAct::kGelu:
        for (std::int64_t j = 0; j < nr; ++j) v[j] = gelu_scalar(v[j]);
        break;
    }
  }
  for (std::int64_t j = 0; j < nr; ++j) crow[j] = v[j];
}

/// Register-tile geometry of one micro-kernel: W-float vectors, MR rows ×
/// NR columns, so MR·NR/W accumulators live in vector registers.
template <int W, int MR, int NR>
struct Tile {
  static_assert(NR % W == 0 && MR <= kMaxMr && NR <= kMaxNr);
  static constexpr int kW = W;
  static constexpr int kMr = MR;
  static constexpr int kNr = NR;
  static constexpr int kNv = NR / W;
  typedef float Vec __attribute__((vector_size(W * sizeof(float))));
  /// Unaligned, aliasing view of packed panels and the spill tile.
  typedef float VecU __attribute__((vector_size(W * sizeof(float)),
                                    aligned(alignof(float)), may_alias));
};

// Tile per ISA. AVX-512: 8×32 = 16 zmm accumulators + 2 B vectors of 32
// registers. AVX2: 6×16 = 12 ymm accumulators + 2 B vectors of 16.
// Portable: the original 4×16 tile on 4-wide (SSE2/NEON) vectors.
using TileAvx512 = Tile<16, 8, 32>;
using TileAvx2 = Tile<8, 6, 16>;
using TilePortable = Tile<4, 4, 16>;

/// The one micro-kernel body, instantiated per ISA through GCC vector
/// extensions: an MR×NR tile of C from an MR-strided A panel and an
/// NR-strided B panel over one KC block. Each C element is one chain
/// acc = acc + a·b in K order; under the FMA targets the compiler
/// contracts every step into a single fused multiply-add (the portable
/// build has no FMA and rounds the product and the sum separately).
/// Every GEMM path — tiny, shallow-K, packed, prepacked — reaches C
/// through the dispatched instance of this body, which is what makes a
/// row's result independent of M, batch composition and thread count.
/// `zero_start` drops the existing C tile (first K block, !accumulate);
/// `ep` (non-null only on the last K block) fuses bias/activation into
/// the store. The A panel is zero-padded, so the full MR is always
/// computed and only mr rows are stored.
template <class T>
HARVEST_FORCE_INLINE void micro_body(const float* ap, const float* bp,
                                     std::int64_t kc, float* c,
                                     std::int64_t ldc, std::int64_t mr,
                                     std::int64_t nr, bool zero_start,
                                     const GemmEpilogue* ep,
                                     std::int64_t i_base,
                                     std::int64_t j_base) {
  using V = typename T::Vec;
  using VU = typename T::VecU;
  V acc[T::kMr][T::kNv] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const VU* brow = reinterpret_cast<const VU*>(bp + p * T::kNr);
    const float* arow = ap + p * T::kMr;
    V b[T::kNv];
#pragma GCC unroll 8
    for (int v = 0; v < T::kNv; ++v) b[v] = brow[v];
#pragma GCC unroll 16
    for (int i = 0; i < T::kMr; ++i) {
#pragma GCC unroll 8
      for (int v = 0; v < T::kNv; ++v) acc[i][v] += arow[i] * b[v];
    }
  }
  alignas(64) float tile[T::kMr * T::kNr];
#pragma GCC unroll 16
  for (int i = 0; i < T::kMr; ++i) {
#pragma GCC unroll 8
    for (int v = 0; v < T::kNv; ++v) {
      *reinterpret_cast<VU*>(tile + i * T::kNr + v * T::kW) = acc[i][v];
    }
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    store_row<T::kNr>(c + i * ldc, tile + i * T::kNr, nr, !zero_start, ep,
                      i_base + i, j_base);
  }
}

#define HARVEST_GEMM_MICRO_ARGS                                             \
  const float *ap, const float *bp, std::int64_t kc, float *c,             \
      std::int64_t ldc, std::int64_t mr, std::int64_t nr, bool zero_start, \
      const GemmEpilogue *ep, std::int64_t i_base, std::int64_t j_base
#define HARVEST_GEMM_MICRO_CALL \
  ap, bp, kc, c, ldc, mr, nr, zero_start, ep, i_base, j_base

void micro_portable(HARVEST_GEMM_MICRO_ARGS) {
  micro_body<TilePortable>(HARVEST_GEMM_MICRO_CALL);
}

#if HARVEST_ISA_DISPATCH
HARVEST_TARGET_AVX2 void micro_avx2(HARVEST_GEMM_MICRO_ARGS) {
  micro_body<TileAvx2>(HARVEST_GEMM_MICRO_CALL);
}

HARVEST_TARGET_AVX512 void micro_avx512(HARVEST_GEMM_MICRO_ARGS) {
  micro_body<TileAvx512>(HARVEST_GEMM_MICRO_CALL);
}
#endif

#undef HARVEST_GEMM_MICRO_ARGS
#undef HARVEST_GEMM_MICRO_CALL

template <class T>
constexpr GemmKernel kernel_entry(GemmKernel::Fn fn, const char* name) {
  return GemmKernel{fn, name, T::kMr, T::kNr};
}

/// The host's kernels, best first; the first is the dispatched one.
const std::vector<GemmKernel>& kernel_table() {
  static const std::vector<GemmKernel> kernels = [] {
    std::vector<GemmKernel> host;
#if HARVEST_ISA_DISPATCH
    if (isa::has_avx512f()) {
      host.push_back(kernel_entry<TileAvx512>(micro_avx512, "avx512"));
    }
    if (isa::has_avx2_fma()) {
      host.push_back(kernel_entry<TileAvx2>(micro_avx2, "avx2"));
    }
#endif
    host.push_back(kernel_entry<TilePortable>(micro_portable, "portable"));
    return host;
  }();
  return kernels;
}

const GemmKernel& dispatched() { return kernel_table().front(); }

/// Shallow-K loop over an already-packed B (single K block since
/// k <= kSmallK <= KC): each thread packs one MR-row panel of A and
/// sweeps it across every B panel.
void gemm_small_k(const GemmKernel& kern, const float* a, std::int64_t lda,
                  const float* bpack, float* c, std::int64_t ldc,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  bool accumulate, const GemmEpilogue& ep, bool parallel) {
  const std::int64_t num_ip = (m + kern.mr - 1) / kern.mr;
  const std::int64_t num_jp = (n + kern.nr - 1) / kern.nr;
  const GemmEpilogue* ep_ptr = ep.empty() ? nullptr : &ep;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::int64_t ip = 0; ip < num_ip; ++ip) {
    const std::int64_t i0 = ip * kern.mr;
    const std::int64_t mr = std::min(kern.mr, m - i0);
    alignas(64) float apanel[kMaxMr * kSmallK];
    pack_a(a + i0 * lda, lda, apanel, mr, k, kern.mr);
    for (std::int64_t jp = 0; jp < num_jp; ++jp) {
      const std::int64_t j0 = jp * kern.nr;
      kern.fn(apanel, bpack + jp * k * kern.nr, k, c + i0 * ldc + j0, ldc, mr,
              std::min(kern.nr, n - j0), !accumulate, ep_ptr, i0, j0);
    }
  }
}

/// Macro-tile extents for an m×n problem on `threads` threads: at most
/// MC×NC (the cache blocks), split further along the dimension with more
/// register tiles per block until every thread has two tasks or the grid
/// runs out of register tiles. At batch 1 (m = 257) the cache blocks
/// alone leave 3–6 uneven tasks for 4 threads. This is scheduling only:
/// the K blocking, and with it every C element's chain, is the same for
/// any grid.
std::pair<std::int64_t, std::int64_t> macro_grid(std::int64_t m,
                                                 std::int64_t n,
                                                 std::int64_t mr,
                                                 std::int64_t nr,
                                                 std::int64_t threads) {
  const std::int64_t row_tiles = (m + mr - 1) / mr;
  const std::int64_t col_tiles = (n + nr - 1) / nr;
  std::int64_t ib = (m + kMc - 1) / kMc;
  std::int64_t jb = (n + kNc - 1) / kNc;
  while (ib * jb < 2 * threads) {
    const bool cols_wider = col_tiles * ib >= row_tiles * jb;
    if (cols_wider && jb < col_tiles) {
      ++jb;
    } else if (ib < row_tiles) {
      ++ib;
    } else if (jb < col_tiles) {
      ++jb;
    } else {
      break;
    }
  }
  return {(row_tiles + ib - 1) / ib * mr, (col_tiles + jb - 1) / jb * nr};
}

/// Macro loop over an already-packed B: parallel over the 2-D grid of
/// mc×nc tiles of C, each thread packing the A block it needs into a
/// thread-local buffer.
void gemm_macro(const GemmKernel& kern, const float* a, std::int64_t lda,
                const float* bpack, float* c, std::int64_t ldc, std::int64_t m,
                std::int64_t n, std::int64_t k, bool accumulate,
                const GemmEpilogue& ep) {
  const bool parallel = m * n * k > kSmallProblem;
  if (k <= kSmallK) {
    gemm_small_k(kern, a, lda, bpack, c, ldc, m, n, k, accumulate, ep,
                 parallel);
    return;
  }
  const std::int64_t mr_t = kern.mr;
  const std::int64_t nr_t = kern.nr;
  const std::int64_t padded_n = round_up(n, nr_t);
  const std::int64_t num_kb = (k + kKc - 1) / kKc;
  std::int64_t threads = 1;
#ifdef _OPENMP
  if (parallel) threads = omp_get_max_threads();
#endif
  const auto [mc_max, nc_max] = macro_grid(m, n, mr_t, nr_t, threads);
  const std::int64_t num_ib = (m + mc_max - 1) / mc_max;
  const std::int64_t num_jb = (n + nc_max - 1) / nc_max;

#pragma omp parallel if (parallel)
  {
    static thread_local std::vector<float> apack_tl;
    apack_tl.resize(static_cast<std::size_t>(kMc * kKc));
    float* apack = apack_tl.data();

#pragma omp for collapse(2) schedule(dynamic)
    for (std::int64_t ib = 0; ib < num_ib; ++ib) {
      for (std::int64_t jb = 0; jb < num_jb; ++jb) {
        const std::int64_t i0 = ib * mc_max;
        const std::int64_t mc = std::min(mc_max, m - i0);
        const std::int64_t j0 = jb * nc_max;
        const std::int64_t nc = std::min(nc_max, n - j0);
        for (std::int64_t kb = 0; kb < num_kb; ++kb) {
          const std::int64_t p0 = kb * kKc;
          const std::int64_t kc = std::min(kKc, k - p0);
          pack_a(a + i0 * lda + p0, lda, apack, mc, kc, mr_t);
          const bool zero_start = (kb == 0) && !accumulate;
          const GemmEpilogue* tile_ep =
              (kb == num_kb - 1 && !ep.empty()) ? &ep : nullptr;
          for (std::int64_t jr = 0; jr < nc; jr += nr_t) {
            const std::int64_t jp = (j0 + jr) / nr_t;
            const float* bp = bpack + p0 * padded_n + jp * kc * nr_t;
            const std::int64_t nr = std::min(nr_t, nc - jr);
            for (std::int64_t ir = 0; ir < mc; ir += mr_t) {
              const std::int64_t mr = std::min(mr_t, mc - ir);
              kern.fn(apack + (ir / mr_t) * kc * mr_t, bp, kc,
                      c + (i0 + ir) * ldc + (j0 + jr), ldc, mr, nr,
                      zero_start, tile_ep, i0 + ir, j0 + jr);
            }
          }
        }
      }
    }
  }
}

constexpr GemmEpilogue kNoEpilogue{};

}  // namespace

std::span<const GemmKernel> gemm_kernels() { return kernel_table(); }

const char* gemm_isa() { return dispatched().name; }

void gemm_with_kernel(const GemmKernel& kernel, const float* a,
                      std::int64_t lda, const float* b, std::int64_t ldb,
                      bool b_transposed, float* c, std::int64_t ldc,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      bool accumulate, const GemmEpilogue& epilogue) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  // B is packed into a thread-local panel buffer reused across calls on
  // the same thread; nested calls (e.g. from the batch-parallel conv
  // loop) land on distinct OpenMP worker threads and therefore distinct
  // buffers.
  static thread_local std::vector<float> bpack_tl;
  bpack_tl.resize(static_cast<std::size_t>(round_up(n, kernel.nr) * k));
  pack_b_panels(kernel.nr, b, ldb, b_transposed, bpack_tl.data(), n, k,
                m * n * k > kSmallProblem);
  gemm_macro(kernel, a, lda, bpack_tl.data(), c, ldc, m, n, k, accumulate,
             epilogue);
}

GemmPackedB::GemmPackedB(const float* b, std::int64_t ldb, bool b_transposed,
                         std::int64_t n, std::int64_t k)
    : GemmPackedB(dispatched(), b, ldb, b_transposed, n, k) {}

GemmPackedB::GemmPackedB(const GemmKernel& kernel, const float* b,
                         std::int64_t ldb, bool b_transposed, std::int64_t n,
                         std::int64_t k)
    : kernel_(kernel), n_(n), k_(k) {
  panels_ = tensor::AlignedBuffer(
      static_cast<std::size_t>(round_up(n, kernel.nr) * k) * sizeof(float));
  pack_b_panels(kernel.nr, b, ldb, b_transposed, panels_.as<float>(), n, k,
                /*parallel=*/true);
}

void gemm_prepacked_ex(const float* a, std::int64_t lda, const GemmPackedB& b,
                       float* c, std::int64_t ldc, std::int64_t m,
                       bool accumulate, const GemmEpilogue& epilogue) {
  if (m <= 0 || b.empty()) return;
  gemm_macro(b.kernel(), a, lda, b.panels(), c, ldc, m, b.n(), b.k(),
             accumulate, epilogue);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_with_kernel(dispatched(), a, k, b, n, /*b_transposed=*/false, c, n, m,
                   n, k, accumulate, kNoEpilogue);
}

void gemm_ex(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate,
             const GemmEpilogue& epilogue) {
  gemm_with_kernel(dispatched(), a, k, b, n, /*b_transposed=*/false, c, n, m,
                   n, k, accumulate, epilogue);
}

void gemm_bt(const float* a, const float* b_t, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_with_kernel(dispatched(), a, k, b_t, k, /*b_transposed=*/true, c, n, m,
                   n, k, accumulate, kNoEpilogue);
}

void gemm_bt_ex(const float* a, const float* b_t, float* c, std::int64_t m,
                std::int64_t n, std::int64_t k, bool accumulate,
                const GemmEpilogue& epilogue) {
  gemm_with_kernel(dispatched(), a, k, b_t, k, /*b_transposed=*/true, c, n, m,
                   n, k, accumulate, epilogue);
}

void gemm_strided(const float* a, std::int64_t lda, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t m,
                  std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_with_kernel(dispatched(), a, lda, b, ldb, /*b_transposed=*/false, c,
                   ldc, m, n, k, accumulate, kNoEpilogue);
}

void gemm_bt_strided(const float* a, std::int64_t lda, const float* b_t,
                     std::int64_t ldb, float* c, std::int64_t ldc,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     bool accumulate) {
  gemm_with_kernel(dispatched(), a, lda, b_t, ldb, /*b_transposed=*/true, c,
                   ldc, m, n, k, accumulate, kNoEpilogue);
}

void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t n, std::int64_t k, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * n + j] : 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[i * k + p] * b[p * n + j];
      }
      c[i * n + j] = acc;
    }
  }
}

void add_row_bias(float* c, const float* bias, std::int64_t m, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

}  // namespace harvest::nn
