#include "nn/attention.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/status.hpp"
#include "nn/activations.hpp"
#include "nn/gemm.hpp"
#include "nn/isa_dispatch.hpp"

// Runtime ISA dispatch for the fused-attention kernels (see
// nn/isa_dispatch.hpp): the bodies below are compiled portable and
// again under an AVX2+FMA wrapper. The 8-wide FMA micro-kernel roughly
// doubles the score/context tile throughput; numerics shift only by FMA
// contraction and vector width (covered by the tolerance gates in
// nn_attention_test and bench/attention_sweep).

namespace harvest::nn {
namespace {

/// One head's attention: scores = softmax(scale · Q Kᵀ), out = scores·V.
/// Q, K and V live interleaved in the [tokens, 3·dim] QKV buffer, so the
/// strided packed-GEMM kernels read them in place (row pitch 3·dim)
/// instead of gathering per-head copies.
void attend_one_head(const float* qkv, float* out, float* scores,
                     std::int64_t tokens, std::int64_t dim, std::int64_t heads,
                     std::int64_t h) {
  const std::int64_t head_dim = dim / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const std::int64_t row = 3 * dim;
  const float* q = qkv + h * head_dim;
  const float* k = qkv + dim + h * head_dim;
  const float* v = qkv + 2 * dim + h * head_dim;

  // scores[i][j] = dot(Q_i, K_j): A = Q (strided), B = K (strided, as Bᵀ).
  gemm_bt_strided(q, row, k, row, scores, tokens, tokens, tokens, head_dim);
  const std::int64_t score_elems = tokens * tokens;
  for (std::int64_t i = 0; i < score_elems; ++i) scores[i] *= scale;
  softmax_rows(scores, tokens, tokens);

  // out[i][head slice] = sum_j scores[i][j] * V_j.
  gemm_strided(scores, tokens, v, row, out + h * head_dim, dim, tokens,
               head_dim, tokens);
}

// ---------------------------------------------------------------------------
// Fused (flash-style) attention.
//
// Register tiling mirrors the packed GEMM's portable tile: MR=4 query
// rows × NR=16 kv columns per micro-tile, kv tiles of kKvBlock columns
// streamed through the online-softmax update. Q is packed once per
// (b, h) into MR-interleaved panels with the 1/√d scale folded in; K
// into NR-interleaved Bᵀ panels; V into NR-column panels per kv tile.
// The output slice itself is the rescaled accumulator, so no O(T²)
// buffer ever exists — scratch is three packed operand copies of
// O(T·head_dim).

constexpr std::int64_t kMrA = 4;       // query rows per register tile
constexpr std::int64_t kNrA = 16;      // kv columns per panel
constexpr std::int64_t kKvBlock = 64;   // kv columns per online-softmax step

/// Branch-free polynomial expf (exp2 via mantissa-magic round + degree-5
/// polynomial, ~2e-6 relative error). The softmax exp is half the cost
/// of naive attention at ViT shapes because libm expf cannot vectorize;
/// this form is plain float arithmetic + a bit cast, so GCC vectorizes
/// the p-loops it appears in. Exact at x == 0 (the running-max element
/// keeps weight 1, like the naive path). Valid for x <= 0, which is all
/// the online softmax ever feeds it.
HARVEST_FORCE_INLINE float fast_expf(float x) {
  // max(x, -87) via the abs identity — a ternary/std::max select is
  // "control flow" to GCC's vectorizer and would keep every loop this
  // inlines into scalar. (-87 ≈ log(2^-126): below it expf is 0 anyway.)
  x = 0.5f * (x - 87.0f + std::fabs(x + 87.0f));
  constexpr float kLog2e = 1.442695041f;
  constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
  const float z = x * kLog2e + kRoundMagic;
  const std::int32_t n =
      std::bit_cast<std::int32_t>(z) - std::bit_cast<std::int32_t>(kRoundMagic);
  const float t = x * kLog2e - (z - kRoundMagic);  // in [-0.5, 0.5]
  // 2^t Taylor: sum (t·ln2)^k / k!.
  float p = 0.0013333558f;
  p = p * t + 0.0096180489f;
  p = p * t + 0.0555041087f;
  p = p * t + 0.2402265069f;
  p = p * t + 0.6931471806f;
  p = p * t + 1.0f;
  return p * std::bit_cast<float>((n + 127) << 23);
}

/// MR×NR micro-kernel over packed panels, vectorized by the compiler.
/// One named accumulator array per MR row, j as the vector axis: a
/// single acc[kMrA][kNrA] reads cleaner but defeats GCC's vectorizer
/// ("complicated access pattern" after it unrolls the fixed-count
/// loops) and runs ~8× slower. The A panel is zero-padded, so the full
/// kMrA is always computed and only mr rows are stored.
HARVEST_FORCE_INLINE void attn_micro(const float* ap, const float* bp,
                                     std::int64_t kc, float* c,
                                     std::int64_t ldc, std::int64_t mr,
                                     std::int64_t nr, bool zero_start) {
  float acc0[kNrA] = {}, acc1[kNrA] = {}, acc2[kNrA] = {}, acc3[kNrA] = {};
  static_assert(kMrA == 4, "accumulator rows are hand-named");
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * kNrA;
    const float a0 = ap[p * kMrA + 0];
    const float a1 = ap[p * kMrA + 1];
    const float a2 = ap[p * kMrA + 2];
    const float a3 = ap[p * kMrA + 3];
    for (std::int64_t j = 0; j < kNrA; ++j) {
      const float bv = brow[j];
      acc0[j] += a0 * bv;
      acc1[j] += a1 * bv;
      acc2[j] += a2 * bv;
      acc3[j] += a3 * bv;
    }
  }
  const float* acc_rows[kMrA] = {acc0, acc1, acc2, acc3};
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* accr = acc_rows[i];
    if (zero_start) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = accr[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += accr[j];
    }
  }
}

constexpr std::int64_t round_up(std::int64_t v, std::int64_t a) {
  return (v + a - 1) / a * a;
}

struct FusedScratchLayout {
  std::int64_t qp;      // packed scaled Q: round_up(T,MR) × hd, A-panel order
  std::int64_t kt;      // packed Kᵀ: round_up(T,NR) × hd, B-panel order
  std::int64_t vp;      // packed V: T × round_up(hd,NR), per-kv-tile panels
  std::int64_t s;       // one MR × kKvBlock score tile
  std::int64_t pp;      // the same tile re-packed as an A panel
  std::int64_t m;       // running max, T
  std::int64_t l;       // running denominator, T
  std::int64_t total;   // floats
};

FusedScratchLayout fused_layout(std::int64_t tokens, std::int64_t head_dim) {
  FusedScratchLayout lo{};
  const std::int64_t padded_hd = round_up(head_dim, kNrA);
  std::int64_t off = 0;
  lo.qp = off; off += round_up(tokens, kMrA) * head_dim;
  lo.kt = off; off += round_up(tokens, kNrA) * head_dim;
  lo.vp = off; off += tokens * padded_hd;
  lo.s = off; off += kMrA * kKvBlock;
  lo.pp = off; off += kMrA * kKvBlock;
  lo.m = off; off += tokens;
  lo.l = off; off += tokens;
  lo.total = off;
  return lo;
}

/// One (image, head) of fused attention. `qkv` points at the image base,
/// `out` at the image's output base; scratch holds fused_layout(...).total
/// floats.
HARVEST_FORCE_INLINE
void attend_one_head_fused_body(const float* qkv, float* out, float* scratch,
                                std::int64_t tokens, std::int64_t dim,
                                std::int64_t heads, std::int64_t h) {
  const std::int64_t hd = dim / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  const std::int64_t row = 3 * dim;
  const float* q = qkv + h * hd;
  const float* k = qkv + dim + h * hd;
  const float* v = qkv + 2 * dim + h * hd;

  const FusedScratchLayout lo = fused_layout(tokens, hd);
  float* qp = scratch + lo.qp;
  float* kt = scratch + lo.kt;
  float* vp = scratch + lo.vp;
  float* s = scratch + lo.s;
  float* pp = scratch + lo.pp;
  float* mrun = scratch + lo.m;
  float* lrun = scratch + lo.l;
  const std::int64_t padded_hd = round_up(hd, kNrA);

  // Pack Q (scale folded) into MR-interleaved A panels.
  for (std::int64_t i0 = 0; i0 < tokens; i0 += kMrA) {
    const std::int64_t mr = std::min(kMrA, tokens - i0);
    float* dst = qp + i0 * hd;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float* qrow = q + (i0 + r) * row;
      for (std::int64_t p = 0; p < hd; ++p) dst[p * kMrA + r] = scale * qrow[p];
    }
    for (std::int64_t r = mr; r < kMrA; ++r) {
      for (std::int64_t p = 0; p < hd; ++p) dst[p * kMrA + r] = 0.0f;
    }
  }
  // Pack Kᵀ into NR-interleaved B panels (column j = key token j).
  for (std::int64_t j0 = 0; j0 < tokens; j0 += kNrA) {
    const std::int64_t nr = std::min(kNrA, tokens - j0);
    float* dst = kt + j0 * hd;
    for (std::int64_t j = 0; j < nr; ++j) {
      const float* krow = k + (j0 + j) * row;
      for (std::int64_t p = 0; p < hd; ++p) dst[p * kNrA + j] = krow[p];
    }
    for (std::int64_t j = nr; j < kNrA; ++j) {
      for (std::int64_t p = 0; p < hd; ++p) dst[p * kNrA + j] = 0.0f;
    }
  }
  // Pack V into per-kv-tile B panels (k-extent = tile width, columns =
  // head_dim): tile at j0 lives at vp + j0·padded_hd.
  for (std::int64_t j0 = 0; j0 < tokens; j0 += kKvBlock) {
    const std::int64_t bc = std::min(kKvBlock, tokens - j0);
    float* tile = vp + j0 * padded_hd;
    for (std::int64_t jh = 0; jh < hd; jh += kNrA) {
      const std::int64_t nr = std::min(kNrA, hd - jh);
      float* dst = tile + jh * bc;
      for (std::int64_t p = 0; p < bc; ++p) {
        const float* vrow = v + (j0 + p) * row + jh;
        for (std::int64_t j = 0; j < nr; ++j) dst[p * kNrA + j] = vrow[j];
        for (std::int64_t j = nr; j < kNrA; ++j) dst[p * kNrA + j] = 0.0f;
      }
    }
  }

  for (std::int64_t i = 0; i < tokens; ++i) {
    mrun[i] = -FLT_MAX;
    lrun[i] = 0.0f;
  }

  float* outh = out + h * hd;
  // KV tiles stream in the outer loop so each packed K/V tile is reused
  // across every query tile while L1-resident; the per-row online state
  // (running max, denominator, output accumulator) carries across tiles.
  for (std::int64_t j0 = 0; j0 < tokens; j0 += kKvBlock) {
    const std::int64_t bc = std::min(kKvBlock, tokens - j0);
    const bool first_tile = (j0 == 0);
    const float* vtile = vp + j0 * padded_hd;
    for (std::int64_t i0 = 0; i0 < tokens; i0 += kMrA) {
      const std::int64_t mr = std::min(kMrA, tokens - i0);
      const float* qpan = qp + i0 * hd;
      // Score tile S[mr][bc] = (scaled Q)·Kᵀ.
      for (std::int64_t jr = 0; jr < bc; jr += kNrA) {
        const std::int64_t nr = std::min(kNrA, bc - jr);
        attn_micro(qpan, kt + (j0 + jr) * hd, hd, s + jr, kKvBlock, mr, nr,
                   /*zero_start=*/true);
      }
      // Online softmax update per query row: new running max, rescale
      // the already-accumulated output slice, exponentiate the tile row
      // in place (it becomes P), extend the denominator.
      for (std::int64_t r = 0; r < mr; ++r) {
        float* srow = s + r * kKvBlock;
        // Row max with eight partial lanes through the abs identity
        // max(a,b) = (a + b + |a − b|)/2 — a std::max reduction is
        // "control flow" to the vectorizer, this is plain arithmetic
        // that compiles to one SIMD lane-max stream. Lanes seed from
        // the first eight elements: a −FLT_MAX sentinel would make the
        // identity cancel catastrophically (a + b + |a − b| rounds to 0
        // when |a| dwarfs |b|); seeded from data, the identity's error
        // stays ~1 ulp of the row's magnitude, which softmax's shift
        // invariance absorbs.
        float tile_max;
        std::int64_t j;
        if (bc >= 8) {
          float mm0 = srow[0], mm1 = srow[1], mm2 = srow[2], mm3 = srow[3];
          float mm4 = srow[4], mm5 = srow[5], mm6 = srow[6], mm7 = srow[7];
          for (j = 8; j + 8 <= bc; j += 8) {
            mm0 = 0.5f * (mm0 + srow[j + 0] + std::fabs(mm0 - srow[j + 0]));
            mm1 = 0.5f * (mm1 + srow[j + 1] + std::fabs(mm1 - srow[j + 1]));
            mm2 = 0.5f * (mm2 + srow[j + 2] + std::fabs(mm2 - srow[j + 2]));
            mm3 = 0.5f * (mm3 + srow[j + 3] + std::fabs(mm3 - srow[j + 3]));
            mm4 = 0.5f * (mm4 + srow[j + 4] + std::fabs(mm4 - srow[j + 4]));
            mm5 = 0.5f * (mm5 + srow[j + 5] + std::fabs(mm5 - srow[j + 5]));
            mm6 = 0.5f * (mm6 + srow[j + 6] + std::fabs(mm6 - srow[j + 6]));
            mm7 = 0.5f * (mm7 + srow[j + 7] + std::fabs(mm7 - srow[j + 7]));
          }
          tile_max =
              std::max(std::max(std::max(mm0, mm1), std::max(mm2, mm3)),
                       std::max(std::max(mm4, mm5), std::max(mm6, mm7)));
        } else {
          tile_max = srow[0];
          j = 1;
        }
        for (; j < bc; ++j) tile_max = std::max(tile_max, srow[j]);
        const float m_old = mrun[i0 + r];
        const float m_new = std::max(m_old, tile_max);
        // Exponentiate in place (vectorizes: fast_expf is branch-free),
        // then sum with eight partial accumulators so the reduction
        // runs as one SIMD lane-sum instead of a serialized chain.
        for (std::int64_t jj = 0; jj < bc; ++jj)
          srow[jj] = fast_expf(srow[jj] - m_new);
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
        j = 0;
        for (; j + 8 <= bc; j += 8) {
          s0 += srow[j + 0];
          s1 += srow[j + 1];
          s2 += srow[j + 2];
          s3 += srow[j + 3];
          s4 += srow[j + 4];
          s5 += srow[j + 5];
          s6 += srow[j + 6];
          s7 += srow[j + 7];
        }
        float sum = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
        for (; j < bc; ++j) sum += srow[j];
        float l = lrun[i0 + r];
        if (!first_tile && m_new != m_old) {
          const float alpha = fast_expf(m_old - m_new);
          l *= alpha;
          float* orow = outh + (i0 + r) * dim;
          for (std::int64_t c = 0; c < hd; ++c) orow[c] *= alpha;
        }
        lrun[i0 + r] = l + sum;
        mrun[i0 + r] = m_new;
      }
      // Re-pack P as an MR-interleaved A panel and accumulate P·V into
      // the output slice (the running accumulator).
      for (std::int64_t p = 0; p < bc; ++p) {
        for (std::int64_t r = 0; r < mr; ++r)
          pp[p * kMrA + r] = s[r * kKvBlock + p];
        for (std::int64_t r = mr; r < kMrA; ++r) pp[p * kMrA + r] = 0.0f;
      }
      for (std::int64_t jh = 0; jh < hd; jh += kNrA) {
        const std::int64_t nr = std::min(kNrA, hd - jh);
        attn_micro(pp, vtile + jh * bc, bc, outh + i0 * dim + jh, dim, mr, nr,
                   first_tile);
      }
    }
  }
  // Normalize by the accumulated denominator.
  for (std::int64_t i = 0; i < tokens; ++i) {
    const float inv = 1.0f / lrun[i];
    float* orow = outh + i * dim;
    for (std::int64_t c = 0; c < hd; ++c) orow[c] *= inv;
  }
}

using AttendFusedFn = void (*)(const float*, float*, float*, std::int64_t,
                               std::int64_t, std::int64_t, std::int64_t);

void attend_one_head_fused_portable(const float* qkv, float* out,
                                    float* scratch, std::int64_t tokens,
                                    std::int64_t dim, std::int64_t heads,
                                    std::int64_t h) {
  attend_one_head_fused_body(qkv, out, scratch, tokens, dim, heads, h);
}

#if HARVEST_ISA_DISPATCH
HARVEST_TARGET_AVX2
void attend_one_head_fused_avx2(const float* qkv, float* out, float* scratch,
                                std::int64_t tokens, std::int64_t dim,
                                std::int64_t heads, std::int64_t h) {
  attend_one_head_fused_body(qkv, out, scratch, tokens, dim, heads, h);
}
#endif

AttendFusedFn resolve_attend_fused() {
#if HARVEST_ISA_DISPATCH
  if (isa::has_avx2_fma()) return attend_one_head_fused_avx2;
#endif
  return attend_one_head_fused_portable;
}

}  // namespace

void self_attention(const float* qkv, float* out, float* scores_scratch,
                    std::int64_t tokens, std::int64_t dim, std::int64_t heads) {
  HARVEST_CHECK_MSG(dim % heads == 0, "dim must divide evenly into heads");
#pragma omp parallel for schedule(static)
  for (std::int64_t h = 0; h < heads; ++h) {
    attend_one_head(qkv, out, scores_scratch + h * tokens * tokens, tokens,
                    dim, heads, h);
  }
}

void self_attention_batched(const float* qkv, float* out, std::int64_t batch,
                            std::int64_t tokens, std::int64_t dim,
                            std::int64_t heads) {
  HARVEST_CHECK_MSG(dim % heads == 0, "dim must divide evenly into heads");
  const std::int64_t image_in = tokens * 3 * dim;
  const std::int64_t image_out = tokens * dim;
#pragma omp parallel
  {
    // Per-thread score tile; sized once and reused across (b, h) tasks.
    static thread_local std::vector<float> scores_tl;
    scores_tl.resize(static_cast<std::size_t>(tokens * tokens));
#pragma omp for collapse(2) schedule(static)
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t h = 0; h < heads; ++h) {
        attend_one_head(qkv + b * image_in, out + b * image_out,
                        scores_tl.data(), tokens, dim, heads, h);
      }
    }
  }
}

void self_attention_fused(const float* qkv, float* out, std::int64_t tokens,
                          std::int64_t dim, std::int64_t heads) {
  self_attention_fused_batched(qkv, out, 1, tokens, dim, heads);
}

void self_attention_fused_batched(const float* qkv, float* out,
                                  std::int64_t batch, std::int64_t tokens,
                                  std::int64_t dim, std::int64_t heads) {
  HARVEST_CHECK_MSG(dim % heads == 0, "dim must divide evenly into heads");
  const std::int64_t hd = dim / heads;
  const std::int64_t image_in = tokens * 3 * dim;
  const std::int64_t image_out = tokens * dim;
  const std::int64_t scratch_floats = fused_layout(tokens, hd).total;
  // ISA variant resolved once per process, outside the parallel region.
  static const AttendFusedFn attend_fused = resolve_attend_fused();
#pragma omp parallel
  {
    // Per-thread packed-operand scratch; sized once, reused across
    // (b, h) tasks and later calls on the same thread.
    static thread_local std::vector<float> fused_tl;
    if (fused_tl.size() < static_cast<std::size_t>(scratch_floats))
      fused_tl.resize(static_cast<std::size_t>(scratch_floats));
#pragma omp for collapse(2) schedule(static)
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t h = 0; h < heads; ++h) {
        attend_fused(qkv + b * image_in, out + b * image_out, fused_tl.data(),
                     tokens, dim, heads, h);
      }
    }
  }
}

std::size_t self_attention_fused_scratch_bytes(std::int64_t tokens,
                                               std::int64_t dim,
                                               std::int64_t heads) {
  HARVEST_CHECK_MSG(dim % heads == 0, "dim must divide evenly into heads");
  return static_cast<std::size_t>(fused_layout(tokens, dim / heads).total) *
         sizeof(float);
}

namespace {

HARVEST_FORCE_INLINE
void attention_decode_fused_body(const float* q, const float* k_rows,
                                 const float* v_rows, std::int64_t row_pitch,
                                 float* out, std::int64_t len,
                                 std::int64_t head_dim, float scale) {
  // Single online pass: no scores buffer. The running-max branch is
  // taken O(log len) times in practice, so the steady-state cost per
  // cached row is one dot product plus one fused accumulate.
  float m = -FLT_MAX;
  float l = 0.0f;
  for (std::int64_t c = 0; c < head_dim; ++c) out[c] = 0.0f;
  for (std::int64_t j = 0; j < len; ++j) {
    const float* krow = k_rows + j * row_pitch;
    // Partial accumulators: a single-scalar dot is a serial FP
    // reduction the compiler must not reassociate; eight independent
    // lanes vectorize (and pipeline) cleanly.
    float acc[8] = {};
    std::int64_t c = 0;
    for (; c + 8 <= head_dim; c += 8) {
      for (int u = 0; u < 8; ++u) acc[u] += q[c + u] * krow[c + u];
    }
    float s = ((acc[0] + acc[4]) + (acc[1] + acc[5])) +
              ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (; c < head_dim; ++c) s += q[c] * krow[c];
    s *= scale;
    const float* vrow = v_rows + j * row_pitch;
    if (s <= m) {
      const float p = fast_expf(s - m);
      l += p;
      for (std::int64_t c = 0; c < head_dim; ++c) out[c] += p * vrow[c];
    } else {
      const float alpha = j == 0 ? 0.0f : fast_expf(m - s);
      l = l * alpha + 1.0f;
      for (std::int64_t c = 0; c < head_dim; ++c)
        out[c] = out[c] * alpha + vrow[c];
      m = s;
    }
  }
  const float inv = 1.0f / l;
  for (std::int64_t c = 0; c < head_dim; ++c) out[c] *= inv;
}

using DecodeFusedFn = void (*)(const float*, const float*, const float*,
                               std::int64_t, float*, std::int64_t, std::int64_t,
                               float);

void attention_decode_fused_portable(const float* q, const float* k_rows,
                                     const float* v_rows,
                                     std::int64_t row_pitch, float* out,
                                     std::int64_t len, std::int64_t head_dim,
                                     float scale) {
  attention_decode_fused_body(q, k_rows, v_rows, row_pitch, out, len, head_dim,
                              scale);
}

#if HARVEST_ISA_DISPATCH
HARVEST_TARGET_AVX2
void attention_decode_fused_avx2(const float* q, const float* k_rows,
                                 const float* v_rows, std::int64_t row_pitch,
                                 float* out, std::int64_t len,
                                 std::int64_t head_dim, float scale) {
  attention_decode_fused_body(q, k_rows, v_rows, row_pitch, out, len, head_dim,
                              scale);
}
#endif

DecodeFusedFn resolve_decode_fused() {
#if HARVEST_ISA_DISPATCH
  if (isa::has_avx2_fma()) return attention_decode_fused_avx2;
#endif
  return attention_decode_fused_portable;
}

}  // namespace

void attention_decode_fused(const float* q, const float* k_rows,
                            const float* v_rows, std::int64_t row_pitch,
                            float* out, std::int64_t len,
                            std::int64_t head_dim, float scale) {
  static const DecodeFusedFn decode_fused = resolve_decode_fused();
  decode_fused(q, k_rows, v_rows, row_pitch, out, len, head_dim, scale);
}

}  // namespace harvest::nn
