#include "nn/qgemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/gelu.hpp"
#include "nn/isa_dispatch.hpp"

#if HARVEST_ISA_DISPATCH
#include <immintrin.h>
#endif

namespace harvest::nn {
namespace {

// Cache blocks, mirroring gemm.cpp. MC and NC are multiples of every
// kernel's MR and NR, so a micro-kernel always writes a whole tile into
// the MC×NC scratch; KC is a multiple of 4, so every non-final K block
// packs to exactly KC/4 quads.
constexpr std::int64_t kMc = 96;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kNc = 512;
static_assert(kKc % 4 == 0, "quad packing needs KC % 4 == 0");

// Problems up to this MNK volume run on the calling thread alone.
constexpr std::int64_t kSmallProblem = 4096;

inline std::int64_t round_up(std::int64_t x, std::int64_t step) {
  return (x + step - 1) / step * step;
}

inline std::int64_t quads_of(std::int64_t kc) { return (kc + 3) / 4; }

// ------------------------------------------------------------- packing

/// Pack `rows` int8 rows (row pitch ld) of kc codes into one k-quad
/// panel `width` rows wide: dst[q·width·4 + r·4 + t] = src[r][4q+t] ^ flip.
/// A panels flip 0x80, which adds 128 and makes each code unsigned; B
/// panels flip nothing. Padding rows and bytes past kc are zero in both,
/// so padded quads add nothing.
void pack_quads(const std::int8_t* src, std::int64_t ld, std::uint8_t* dst,
                std::int64_t rows, std::int64_t width, std::int64_t kc,
                std::uint8_t flip) {
  const std::int64_t kq = quads_of(kc);
  const std::int64_t full = kc / 4;
  const std::uint32_t flip4 = flip * 0x01010101u;
  for (std::int64_t r = 0; r < width; ++r) {
    std::uint8_t* out = dst + r * 4;
    if (r >= rows) {
      for (std::int64_t q = 0; q < kq; ++q) {
        std::memset(out + q * width * 4, 0, 4);
      }
      continue;
    }
    const std::int8_t* row = src + r * ld;
    for (std::int64_t q = 0; q < full; ++q) {
      std::uint32_t quad;
      std::memcpy(&quad, row + 4 * q, 4);
      quad ^= flip4;
      std::memcpy(out + q * width * 4, &quad, 4);
    }
    for (std::int64_t t = 0; t < 4 * (kq - full); ++t) {
      const std::int64_t p = 4 * full + t;
      out[full * width * 4 + t] =
          p < kc ? static_cast<std::uint8_t>(row[p] ^ flip) : std::uint8_t{0};
    }
  }
}

/// Pack the whole Bᵀ ([n, k], row pitch ldb) into nr-column quad panels
/// as the macro loop reads them: panel (kb, jp) at byte offset
/// p0·padded_n + jp·round_up(kc, 4)·nr, padded_n·round_up(k, 4) bytes in
/// all. `comp` (padded_n values) receives each column's compensation
/// −128·Σₖ b[j][k], zero on the padding columns: the A shift adds
/// 128·Σₖ b[j][k] to every accumulator of column j.
void pack_b_all(std::int64_t nr, const std::int8_t* b_t, std::int64_t ldb,
                std::int8_t* bpack, std::int32_t* comp, std::int64_t n,
                std::int64_t k) {
  const std::int64_t padded_n = round_up(n, nr);
  const std::int64_t num_kb = (k + kKc - 1) / kKc;
  const std::int64_t num_jp = padded_n / nr;
#pragma omp parallel for collapse(2) schedule(static) if (n * k > kSmallProblem)
  for (std::int64_t kb = 0; kb < num_kb; ++kb) {
    for (std::int64_t jp = 0; jp < num_jp; ++jp) {
      const std::int64_t p0 = kb * kKc;
      const std::int64_t kc = std::min(kKc, k - p0);
      const std::int64_t j0 = jp * nr;
      const std::int64_t cols = std::min(nr, n - j0);
      pack_quads(b_t + j0 * ldb + p0, ldb,
                 reinterpret_cast<std::uint8_t*>(bpack) + p0 * padded_n +
                     jp * round_up(kc, 4) * nr,
                 cols, nr, kc, 0);
      if (kb != 0) continue;
      for (std::int64_t j = 0; j < nr; ++j) {
        std::int32_t sum = 0;
        if (j < cols) {
          const std::int8_t* row = b_t + (j0 + j) * ldb;
          for (std::int64_t p = 0; p < k; ++p) sum += row[p];
        }
        comp[j0 + j] = -128 * sum;
      }
    }
  }
}

// -------------------------------------------------------- micro-kernels

/// Register-tile geometry of one int8 micro-kernel: W int32 lanes, MR
/// rows × NR columns, so MR·NR/W accumulators live in vector registers.
/// Each lane of a B vector holds one column's k-quad (four s8 bytes).
template <int W, int MR, int NR>
struct QTile {
  static_assert(NR % W == 0 && kMc % MR == 0 && kNc % NR == 0);
  static constexpr int kW = W;
  static constexpr int kMr = MR;
  static constexpr int kNr = NR;
  static constexpr int kNv = NR / W;
  typedef std::int32_t Vec __attribute__((vector_size(W * 4)));
  /// Unaligned, aliasing view of packed panels and the scratch tile.
  typedef std::int32_t VecU __attribute__((vector_size(W * 4),
                                           aligned(alignof(std::int32_t)),
                                           may_alias));
};

// Each tile's dot4(acc, a, b) adds, exactly, Σₜ a_u8[t]·b_s8[t] over the
// four bytes of every lane. None saturates: `vpmaddubsw` would, at int16
// (255·127·2 > 32767), so no path uses it.

/// Portable: multiply the even and the odd bytes as int16 lanes (a u8·s8
/// product fits), then widen each lane's two products before adding.
struct TilePortable : QTile<4, 4, 16> {
  typedef std::int16_t Vec16 __attribute__((vector_size(16)));
  static inline void dot4(Vec& acc, const Vec& a, const Vec& b) {
    const Vec16 a16 = reinterpret_cast<Vec16>(a);
    const Vec16 b16 = reinterpret_cast<Vec16>(b);
    const Vec even = reinterpret_cast<Vec>((a16 & 0xff) * ((b16 << 8) >> 8));
    const Vec odd = reinterpret_cast<Vec>(((a16 >> 8) & 0xff) * (b16 >> 8));
    acc += ((even << 16) >> 16) + (even >> 16) + ((odd << 16) >> 16) +
           (odd >> 16);
  }
};

#if HARVEST_ISA_DISPATCH
/// AVX2: the same even/odd split, summed by two `vpmaddwd`s (a pair sum
/// is at most 2·255·128, exact in int32).
struct TileAvx2 : QTile<8, 4, 16> {
  HARVEST_TARGET_AVX2 static inline void dot4(Vec& acc, const Vec& a,
                                              const Vec& b) {
    const __m256i av = reinterpret_cast<__m256i>(a);
    const __m256i bv = reinterpret_cast<__m256i>(b);
    const __m256i a_even = _mm256_and_si256(av, _mm256_set1_epi16(0xff));
    const __m256i b_even = _mm256_srai_epi16(_mm256_slli_epi16(bv, 8), 8);
    acc += reinterpret_cast<Vec>(_mm256_madd_epi16(a_even, b_even)) +
           reinterpret_cast<Vec>(_mm256_madd_epi16(
               _mm256_srli_epi16(av, 8), _mm256_srai_epi16(bv, 8)));
  }
};

/// AVX-VNNI: one VEX `vpdpbusd` per B vector (6×16 in 16 ymm registers).
struct TileAvxVnni : QTile<8, 6, 16> {
  HARVEST_TARGET_AVXVNNI static inline void dot4(Vec& acc, const Vec& a,
                                                 const Vec& b) {
    acc = reinterpret_cast<Vec>(_mm256_dpbusd_avx_epi32(
        reinterpret_cast<__m256i>(acc), reinterpret_cast<__m256i>(a),
        reinterpret_cast<__m256i>(b)));
  }
};

/// AVX-512-VNNI: 8×32 = 16 zmm accumulators + 2 B vectors of 32
/// registers; `vpdpbusd` issues once per cycle.
struct TileAvx512Vnni : QTile<16, 8, 32> {
  HARVEST_TARGET_AVX512VNNI static inline void dot4(Vec& acc, const Vec& a,
                                                    const Vec& b) {
    acc = reinterpret_cast<Vec>(_mm512_dpbusd_epi32(
        reinterpret_cast<__m512i>(acc), reinterpret_cast<__m512i>(a),
        reinterpret_cast<__m512i>(b)));
  }
};
#endif

/// The one int8 micro-kernel body, instantiated per ISA (QGemmKernel
/// states the contract). Integer arithmetic throughout, so every
/// instance is bit-identical to the naive reference.
template <class T>
HARVEST_FORCE_INLINE void qmicro_body(const std::uint8_t* ap,
                                      const std::int8_t* bp, std::int64_t kq,
                                      const std::int32_t* init,
                                      std::int32_t* c, std::int64_t ldc) {
  using V = typename T::Vec;
  using VU = typename T::VecU;
  typedef std::int32_t QuadU __attribute__((may_alias));
  V acc[T::kMr][T::kNv];
#pragma GCC unroll 16
  for (int i = 0; i < T::kMr; ++i) {
#pragma GCC unroll 8
    for (int v = 0; v < T::kNv; ++v) {
      acc[i][v] = init != nullptr
                      ? *reinterpret_cast<const VU*>(init + v * T::kW)
                      : *reinterpret_cast<const VU*>(c + i * ldc + v * T::kW);
    }
  }
  const QuadU* aq = reinterpret_cast<const QuadU*>(ap);
  for (std::int64_t q = 0; q < kq; ++q) {
    const VU* brow = reinterpret_cast<const VU*>(bp + q * T::kNr * 4);
    V b[T::kNv];
#pragma GCC unroll 8
    for (int v = 0; v < T::kNv; ++v) b[v] = brow[v];
#pragma GCC unroll 16
    for (int i = 0; i < T::kMr; ++i) {
      const V a = V{} + aq[q * T::kMr + i];
#pragma GCC unroll 8
      for (int v = 0; v < T::kNv; ++v) T::dot4(acc[i][v], a, b[v]);
    }
  }
#pragma GCC unroll 16
  for (int i = 0; i < T::kMr; ++i) {
#pragma GCC unroll 8
    for (int v = 0; v < T::kNv; ++v) {
      *reinterpret_cast<VU*>(c + i * ldc + v * T::kW) = acc[i][v];
    }
  }
}

// One wrapper per tile. They are `flatten` because each dot4 carries a
// target attribute of its own (its intrinsics need one), and a target
// function inlines only into a caller of that target: the wrapper, not
// the generic body. Each tile's GELU step runs the width and FMA use of
// the fp32 kernel on the same ISA, so both epilogues round GELU alike.
#define HARVEST_INT8_MICRO(name, target, Tile)                        \
  target __attribute__((flatten)) void micro_##name(                  \
      const std::uint8_t* ap, const std::int8_t* bp, std::int64_t kq, \
      const std::int32_t* init, std::int32_t* c, std::int64_t ldc) {  \
    qmicro_body<Tile>(ap, bp, kq, init, c, ldc);                      \
  }                                                                   \
  target void gelu_##name(float* row, std::int64_t n) {              \
    detail::gelu_row<Tile::kW>(row, n);                               \
  }

HARVEST_INT8_MICRO(portable, , TilePortable)
#if HARVEST_ISA_DISPATCH
HARVEST_INT8_MICRO(avx2, HARVEST_TARGET_AVX2, TileAvx2)
HARVEST_INT8_MICRO(avxvnni, HARVEST_TARGET_AVXVNNI, TileAvxVnni)
HARVEST_INT8_MICRO(avx512vnni, HARVEST_TARGET_AVX512VNNI, TileAvx512Vnni)
#endif
#undef HARVEST_INT8_MICRO

#define HARVEST_INT8_ENTRY(name, Tile) \
  QGemmKernel { micro_##name, gelu_##name, #name, Tile::kMr, Tile::kNr }

/// The host's kernels, best first; the first is the dispatched one.
const std::vector<QGemmKernel>& kernel_table() {
  static const std::vector<QGemmKernel> kernels = [] {
    std::vector<QGemmKernel> host;
#if HARVEST_ISA_DISPATCH
    if (isa::has_avx512vnni()) {
      host.push_back(HARVEST_INT8_ENTRY(avx512vnni, TileAvx512Vnni));
    }
    if (isa::has_avxvnni()) {
      host.push_back(HARVEST_INT8_ENTRY(avxvnni, TileAvxVnni));
    }
    if (isa::has_avx2_fma()) {
      host.push_back(HARVEST_INT8_ENTRY(avx2, TileAvx2));
    }
#endif
    host.push_back(HARVEST_INT8_ENTRY(portable, TilePortable));
    return host;
  }();
  return kernels;
}
#undef HARVEST_INT8_ENTRY

const QGemmKernel& dispatched() { return kernel_table().front(); }

// ------------------------------------------------------------- epilogue

/// Retire one finished int32 tile (mc×nc at scratch, row pitch lds)
/// into fp32 C while it is cache-hot:
///   v = float(acc) · scale_m[i] · scale_n[j] + bias_m[i] + bias_n[j],
/// then the activation, then c = v or c += v — one unswitched pass over
/// the row per step, in that order, so each pass vectorizes and every
/// element rounds as the scalar sequence does. This file targets the
/// baseline ISA, which has no FMA to contract into; GELU runs kern.gelu.
void retire_tile_dequant(const QGemmKernel& kern, const std::int32_t* scratch,
                         std::int64_t lds, float* c, std::int64_t ldc,
                         std::int64_t i0, std::int64_t j0, std::int64_t mc,
                         std::int64_t nc, const QGemmEpilogue& ep) {
  float v[kNc];
  for (std::int64_t i = 0; i < mc; ++i) {
    const std::int32_t* srow = scratch + i * lds;
    float* crow = c + (i0 + i) * ldc + j0;
    for (std::int64_t j = 0; j < nc; ++j) v[j] = static_cast<float>(srow[j]);
    if (ep.scale_m != nullptr) {
      const float s = ep.scale_m[i0 + i];
      for (std::int64_t j = 0; j < nc; ++j) v[j] *= s;
    }
    if (ep.scale_n != nullptr) {
      const float* s = ep.scale_n + j0;
      for (std::int64_t j = 0; j < nc; ++j) v[j] *= s[j];
    }
    if (ep.bias_m != nullptr) {
      const float b = ep.bias_m[i0 + i];
      for (std::int64_t j = 0; j < nc; ++j) v[j] += b;
    }
    if (ep.bias_n != nullptr) {
      const float* b = ep.bias_n + j0;
      for (std::int64_t j = 0; j < nc; ++j) v[j] += b[j];
    }
    switch (ep.act) {
      case QGemmEpilogue::Act::kNone: break;
      case QGemmEpilogue::Act::kRelu:
        for (std::int64_t j = 0; j < nc; ++j) v[j] = std::max(0.0f, v[j]);
        break;
      case QGemmEpilogue::Act::kGelu: kern.gelu(v, nc); break;
    }
    if (ep.accumulate) {
      for (std::int64_t j = 0; j < nc; ++j) crow[j] += v[j];
    } else {
      std::memcpy(crow, v, static_cast<std::size_t>(nc) * sizeof(float));
    }
  }
}

// --------------------------------------------------------------- driver

/// Grow a (thread-local) aligned scratch to at least `elems` elements
/// and return its base. Contents are scratch — callers fully overwrite
/// whatever region they read back.
template <typename T>
T* grow_scratch(tensor::AlignedBuffer& buf, std::size_t elems) {
  const std::size_t bytes = elems * sizeof(T);
  if (buf.size_bytes() < bytes) buf = tensor::AlignedBuffer(bytes);
  return buf.as<T>();
}

inline std::size_t packed_b_bytes(std::int64_t nr, std::int64_t n,
                                  std::int64_t k) {
  return static_cast<std::size_t>(round_up(n, nr) * round_up(k, 4));
}

/// Packed-panel driver shared by every public entry point. The int32
/// accumulator tile lives in a thread-local scratch (never in C, which
/// may be fp32); tiles retire through `retire` while still cache-hot.
/// `bpack` and `comp` are B as pack_b_all lays it out for `kern`.
template <typename Retire>
void qgemm_driver(const QGemmKernel& kern, const std::int8_t* a,
                  const std::int8_t* bpack, const std::int32_t* comp,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  const Retire& retire) {
  const std::int64_t mr = kern.mr;
  const std::int64_t nr = kern.nr;
  const std::int64_t padded_n = round_up(n, nr);
  const std::int64_t num_kb = (k + kKc - 1) / kKc;
  const std::int64_t num_ib = (m + kMc - 1) / kMc;
  const std::int64_t num_jb = (n + kNc - 1) / kNc;

#pragma omp parallel if (m * n * k > kSmallProblem)
  {
    // Packed A block plus the int32 accumulator tile, both per thread.
    static thread_local tensor::AlignedBuffer apack_tl;
    static thread_local tensor::AlignedBuffer ctile_tl;
    std::uint8_t* apack = grow_scratch<std::uint8_t>(
        apack_tl, static_cast<std::size_t>(kMc * kKc));
    std::int32_t* ctile = grow_scratch<std::int32_t>(
        ctile_tl, static_cast<std::size_t>(kMc * kNc));

#pragma omp for collapse(2) schedule(dynamic)
    for (std::int64_t ib = 0; ib < num_ib; ++ib) {
      for (std::int64_t jb = 0; jb < num_jb; ++jb) {
        const std::int64_t i0 = ib * kMc;
        const std::int64_t mc = std::min(kMc, m - i0);
        const std::int64_t j0 = jb * kNc;
        const std::int64_t nc = std::min(kNc, n - j0);
        for (std::int64_t kb = 0; kb < num_kb; ++kb) {
          const std::int64_t p0 = kb * kKc;
          const std::int64_t kc = std::min(kKc, k - p0);
          const std::int64_t kq = quads_of(kc);
          for (std::int64_t ir = 0; ir < mc; ir += mr) {
            pack_quads(a + (i0 + ir) * k + p0, k, apack + ir * kq * 4,
                       std::min(mr, mc - ir), mr, kc, 0x80);
          }
          for (std::int64_t jr = 0; jr < nc; jr += nr) {
            const std::int8_t* bp = bpack + p0 * padded_n + (j0 + jr) * kq * 4;
            // The first K block starts from the compensation, later
            // ones from the partial sums in the tile.
            const std::int32_t* init = kb == 0 ? comp + j0 + jr : nullptr;
            for (std::int64_t ir = 0; ir < mc; ir += mr) {
              // The scratch tile is full-size, so the micro-kernel
              // always writes a complete MR×NR tile; only the valid
              // mc×nc region retires to C.
              kern.fn(apack + ir * kq * 4, bp, kq, init, ctile + ir * kNc + jr,
                      kNc);
            }
          }
        }
        retire(ctile, i0, j0, mc, nc);
      }
    }
  }
}

/// The driver over Bᵀ packed per call, into thread-local buffers reused
/// across calls.
template <typename Retire>
void qgemm_packing_b(const QGemmKernel& kern, const std::int8_t* a,
                     const std::int8_t* b_t, std::int64_t m, std::int64_t n,
                     std::int64_t k, const Retire& retire) {
  static thread_local tensor::AlignedBuffer panels_tl;
  static thread_local tensor::AlignedBuffer comp_tl;
  std::int8_t* panels =
      grow_scratch<std::int8_t>(panels_tl, packed_b_bytes(kern.nr, n, k));
  std::int32_t* comp = grow_scratch<std::int32_t>(
      comp_tl, static_cast<std::size_t>(round_up(n, kern.nr)));
  pack_b_all(kern.nr, b_t, k, panels, comp, n, k);
  qgemm_driver(kern, a, panels, comp, m, n, k, retire);
}

}  // namespace

std::span<const QGemmKernel> qgemm_kernels() { return kernel_table(); }

void qgemm_bt_naive(const std::int8_t* a, const std::int8_t* b_t,
                    std::int32_t* c, std::int64_t m, std::int64_t n,
                    std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[i * k + p]) *
               static_cast<std::int32_t>(b_t[j * k + p]);
      }
      c[i * n + j] = acc;
    }
  }
}

void qgemm_bt(const std::int8_t* a, const std::int8_t* b_t, std::int32_t* c,
              std::int64_t m, std::int64_t n, std::int64_t k) {
  qgemm_bt_with_kernel(dispatched(), a, b_t, c, m, n, k);
}

void qgemm_bt_with_kernel(const QGemmKernel& kernel, const std::int8_t* a,
                          const std::int8_t* b_t, std::int32_t* c,
                          std::int64_t m, std::int64_t n, std::int64_t k) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  qgemm_packing_b(kernel, a, b_t, m, n, k,
                  [&](const std::int32_t* tile, std::int64_t i0,
                      std::int64_t j0, std::int64_t mc, std::int64_t nc) {
                    for (std::int64_t i = 0; i < mc; ++i) {
                      std::memcpy(c + (i0 + i) * n + j0, tile + i * kNc,
                                  static_cast<std::size_t>(nc) *
                                      sizeof(std::int32_t));
                    }
                  });
}

void qgemm_bt_dequant(const std::int8_t* a, const std::int8_t* b_t, float* c,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      const QGemmEpilogue& epilogue) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  qgemm_packing_b(dispatched(), a, b_t, m, n, k,
                  [&](const std::int32_t* tile, std::int64_t i0,
                      std::int64_t j0, std::int64_t mc, std::int64_t nc) {
                    retire_tile_dequant(dispatched(), tile, kNc, c, n, i0, j0,
                                        mc, nc, epilogue);
                  });
}

QGemmPackedB::QGemmPackedB(const std::int8_t* b_t, std::int64_t n,
                           std::int64_t k)
    : QGemmPackedB(dispatched(), b_t, n, k) {}

QGemmPackedB::QGemmPackedB(const QGemmKernel& kernel, const std::int8_t* b_t,
                           std::int64_t n, std::int64_t k)
    : kernel_(kernel), n_(n), k_(k),
      panels_(packed_b_bytes(kernel.nr, n, k)),
      compensation_(static_cast<std::size_t>(round_up(n, kernel.nr)) *
                    sizeof(std::int32_t)) {
  // pack_b_all writes every byte (padding included), so the
  // uninitialized aligned storage never leaks into the accumulators.
  pack_b_all(kernel.nr, b_t, k, panels_.as<std::int8_t>(),
             compensation_.as<std::int32_t>(), n, k);
}

void qgemm_prepacked_dequant(const std::int8_t* a, const QGemmPackedB& b,
                             float* c, std::int64_t m,
                             const QGemmEpilogue& epilogue) {
  const std::int64_t n = b.n();
  const std::int64_t k = b.k();
  if (m <= 0 || n <= 0 || k <= 0) return;
  qgemm_driver(b.kernel(), a, b.data(), b.compensation(), m, n, k,
               [&](const std::int32_t* tile, std::int64_t i0, std::int64_t j0,
                   std::int64_t mc, std::int64_t nc) {
                 retire_tile_dequant(b.kernel(), tile, kNc, c, n, i0, j0, mc,
                                     nc, epilogue);
               });
}

const char* qgemm_isa() { return dispatched().name; }

}  // namespace harvest::nn
