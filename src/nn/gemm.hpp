#pragma once

/// \file gemm.hpp
/// Single-precision GEMM kernels. This is the computational backbone of
/// the real (host) inference path: linear layers, im2col convolution and
/// attention all lower to these calls.
///
/// The production kernel is a packed-panel design (BLIS-style): A is
/// packed into MR-strided row panels and B into NR-strided column
/// panels so the micro-kernel streams both operands contiguously, and
/// the macro loop parallelizes over the 2-D M×N tile grid rather than
/// M-only (a 196-row ViT GEMM previously yielded only 4 parallel
/// chunks). An optional fused epilogue applies bias and activation as C
/// tiles retire from registers, eliminating the separate
/// `add_row_bias` + activation memory passes. The same packed path is
/// the workload of the practical-FLOPS benchmark reproducing the
/// "Practical TFLOPS" row of Table 1 on the host CPU.
///
/// The micro-kernel is picked once per process from the host ISA
/// (AVX-512F 8×32 → AVX2+FMA 6×16 → portable 4×16, see `gemm_kernels`),
/// and every path computes each C element as the same accumulation
/// chain in K order, so within one ISA a row's result does not depend
/// on M, on which rows share the call, or on the thread count. Across
/// ISAs results differ by FMA rounding only (docs/PERFORMANCE.md).

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/buffer.hpp"

namespace harvest::nn {

/// Activation applied by the fused GEMM epilogue.
enum class EpilogueAct { kNone, kRelu, kGelu };

/// Fused epilogue: applied to each C tile while it is cache-resident,
/// immediately after its last K panel is accumulated.
struct GemmEpilogue {
  /// Added per column: c[i][j] += bias_n[j] (linear-layer bias).
  const float* bias_n = nullptr;
  /// Added per row: c[i][j] += bias_m[i] (conv per-out-channel bias,
  /// where rows of the im2col GEMM are output channels).
  const float* bias_m = nullptr;
  /// Added elementwise: c[i][j] += add_c[i*add_ld + j]. PatchEmbed uses
  /// this to fuse the positional-embedding add into the projection GEMM
  /// instead of a separate memory pass over the token matrix.
  const float* add_c = nullptr;
  std::int64_t add_ld = 0;
  EpilogueAct act = EpilogueAct::kNone;

  bool empty() const {
    return bias_n == nullptr && bias_m == nullptr && add_c == nullptr &&
           act == EpilogueAct::kNone;
  }
};

/// One fp32 micro-kernel variant: an mr×nr register tile compiled for
/// one ISA. B panels are packed nr columns wide and A panels mr rows
/// tall for it, so packed operands belong to the kernel that packed them.
struct GemmKernel {
  using Fn = void (*)(const float* ap, const float* bp, std::int64_t kc,
                      float* c, std::int64_t ldc, std::int64_t mr,
                      std::int64_t nr, bool zero_start, const GemmEpilogue* ep,
                      std::int64_t i_base, std::int64_t j_base);
  Fn fn = nullptr;
  const char* name = "";  ///< "avx512" | "avx2" | "portable"
  std::int64_t mr = 0;
  std::int64_t nr = 0;
};

/// Every kernel variant compiled into this binary that the host runs,
/// best first. The first is the one every entry point below dispatches
/// to; tests iterate the rest to hold each ISA path to the reference.
std::span<const GemmKernel> gemm_kernels();

/// Name of the dispatched fp32 micro-kernel (`gemm_kernels().front()`),
/// mirroring `qgemm_isa()`; bench reports record it so a GEMM rate is
/// attributable to an ISA.
const char* gemm_isa();

/// Ahead-of-time packed B operand for the fp32 packed-panel GEMM,
/// mirroring `QGemmPackedB` for the int8 path: the NR-panel reordering
/// that `gemm_with_kernel` otherwise performs per call is done once
/// (64-byte aligned storage) so steady-state forwards skip the pack pass
/// and its memory traffic entirely. Weights pack at model-load time
/// (`Layer::prepare`), landing the cost in the measured cold start.
class GemmPackedB {
 public:
  GemmPackedB() = default;

  /// Packs row-major B[k,n] (`b_transposed == false`, row pitch ldb) or
  /// Bᵀ[n,k] (`b_transposed == true`, the [out,in] linear-weight
  /// layout). The source buffer is not referenced after construction.
  GemmPackedB(const float* b, std::int64_t ldb, bool b_transposed,
              std::int64_t n, std::int64_t k);

  /// As above, packed for an explicit `kernel` from gemm_kernels();
  /// gemm_prepacked_ex then runs that kernel.
  GemmPackedB(const GemmKernel& kernel, const float* b, std::int64_t ldb,
              bool b_transposed, std::int64_t n, std::int64_t k);

  bool empty() const { return n_ == 0; }
  const GemmKernel& kernel() const { return kernel_; }
  std::int64_t n() const { return n_; }
  std::int64_t k() const { return k_; }
  std::size_t packed_bytes() const { return panels_.size_bytes(); }
  const float* panels() const { return panels_.as<float>(); }

 private:
  tensor::AlignedBuffer panels_;
  GemmKernel kernel_;
  std::int64_t n_ = 0;
  std::int64_t k_ = 0;
};

/// C[M,N] = A[M,K] * B[K,N] (+ C if accumulate). Row-major, no aliasing.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t n, std::int64_t k, bool accumulate = false);

/// As gemm(), with a fused bias/activation epilogue.
void gemm_ex(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate,
             const GemmEpilogue& epilogue);

/// C[M,N] = A[M,K] * B^T where B is stored row-major as [N,K].
/// Used by attention (Q·Kᵀ) and by linear layers whose weights are kept
/// in [out,in] order.
void gemm_bt(const float* a, const float* b_t, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate = false);

/// As gemm_bt(), with a fused bias/activation epilogue.
void gemm_bt_ex(const float* a, const float* b_t, float* c, std::int64_t m,
                std::int64_t n, std::int64_t k, bool accumulate,
                const GemmEpilogue& epilogue);

/// Strided variants: operand rows may be embedded in a larger row pitch
/// (`lda`/`ldb`/`ldc` in elements). Attention uses these to run Q·Kᵀ and
/// scores·V directly on the interleaved [tokens, 3·dim] QKV buffer
/// without gathering per-head copies first.
void gemm_strided(const float* a, std::int64_t lda, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t m,
                  std::int64_t n, std::int64_t k, bool accumulate = false);

void gemm_bt_strided(const float* a, std::int64_t lda, const float* b_t,
                     std::int64_t ldb, float* c, std::int64_t ldc,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     bool accumulate = false);

/// C[M, b.n()] = A[M, b.k()] * B (+ C if accumulate) against an
/// ahead-of-time packed B. Identical numerics to gemm_ex/gemm_bt_ex on
/// the same operand; skips the per-call B pack.
void gemm_prepacked_ex(const float* a, std::int64_t lda, const GemmPackedB& b,
                       float* c, std::int64_t ldc, std::int64_t m,
                       bool accumulate, const GemmEpilogue& epilogue);

/// The packed-panel GEMM every entry point above lowers to, on an
/// explicit kernel variant: C = epilogue(A·B (+ C)), B row-major [K,N]
/// or (`b_transposed`) [N,K], all operands strided. The public entry
/// points pass the dispatched kernel.
void gemm_with_kernel(const GemmKernel& kernel, const float* a,
                      std::int64_t lda, const float* b, std::int64_t ldb,
                      bool b_transposed, float* c, std::int64_t ldc,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      bool accumulate, const GemmEpilogue& epilogue);

/// Reference kernel (unblocked, single-threaded); used by tests and as
/// the baseline in the kernel microbenchmarks.
void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t n, std::int64_t k, bool accumulate = false);

/// Adds `bias[j]` to every row of C[M,N]. Prefer the fused epilogue of
/// gemm_ex/gemm_bt_ex on hot paths; this remains for cold paths and
/// tests.
void add_row_bias(float* c, const float* bias, std::int64_t m, std::int64_t n);

}  // namespace harvest::nn
