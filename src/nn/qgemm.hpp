#pragma once

/// \file qgemm.hpp
/// Packed int8 GEMM — the integer counterpart of the fp32 packed-panel
/// kernel in gemm.hpp. Operands are int8, accumulation is exact int32,
/// and the epilogue dequantizes per tile: per-row/per-column scales,
/// bias, optional ReLU/GELU, optional accumulate-into-C — so a
/// quantized dense layer is one kernel call with no separate
/// dequantize/bias/activation memory passes.
///
/// The micro-kernel multiplies u8×s8 k-quads, the operand shape of
/// `vpdpbusd` (four u8·s8 products summed into each int32 lane).
/// Packing A adds 128 to every code, which makes it unsigned; packing B
/// keeps it signed and records each column's compensation
/// −128·Σₖ b[j][k], from which the first K block starts its
/// accumulators. So every tile retires the exact int32 of A·Bᵀ.
/// Kernels sit in a `{fn, name, mr, nr}` table (`qgemm_kernels()`) like
/// the fp32 ones, picked once per process by host ISA (AVX-512-VNNI →
/// AVX-VNNI → AVX2 → portable); every entry is int32-exact, so tests
/// gate on equality with the naive reference on any machine. B ([N, K]
/// row-major, the weight layout of Linear) can be packed once ahead of
/// time (`QGemmPackedB`) — weights are static, so layers pay the packing
/// and the compensation at quantization time, not per forward.

#include <cstdint>
#include <span>

#include "tensor/buffer.hpp"

namespace harvest::nn {

/// Epilogue fused into the int8 kernel's tile retirement: the int32
/// accumulator tile is dequantized as
///   c[i][j] (+)= acc[i][j] · scale_m[i] · scale_n[j] + bias
/// while it is still cache-hot. Null scale pointers mean "scale 1".
struct QGemmEpilogue {
  enum class Act { kNone, kRelu, kGelu };
  const float* scale_m = nullptr;  ///< per-row scale (e.g. activation rows)
  const float* scale_n = nullptr;  ///< per-column scale (e.g. weight rows)
  const float* bias_m = nullptr;   ///< per-row bias (conv: per out-channel)
  const float* bias_n = nullptr;   ///< per-column bias (linear: per output)
  Act act = Act::kNone;
  bool accumulate = false;         ///< c += dequant(acc) instead of c =
};

/// One int8 micro-kernel variant: an mr×nr int32 register tile compiled
/// for one ISA. It runs `kq` k-quads of an mr-row A panel (u8, shifted
/// by +128) against an nr-column B panel (s8). The accumulators start
/// from `init` (nr values, one per column, shared by every row) when it
/// is non-null, else from the tile in `c`; the full mr×nr tile is
/// stored back to `c` (row pitch ldc). B panels are packed nr columns
/// wide, so packed operands belong to the kernel that packed them.
struct QGemmKernel {
  using Fn = void (*)(const std::uint8_t* ap, const std::int8_t* bp,
                      std::int64_t kq, const std::int32_t* init,
                      std::int32_t* c, std::int64_t ldc);
  Fn fn = nullptr;
  const char* name = "";  ///< "avx512vnni" | "avxvnni" | "avx2" | "portable"
  std::int64_t mr = 0;
  std::int64_t nr = 0;
};

/// Every int8 kernel variant compiled into this binary that the host
/// runs, best first. The first is the one every entry point below
/// dispatches to; tests iterate the rest to hold each path to the exact
/// int32 reference.
std::span<const QGemmKernel> qgemm_kernels();

/// Reference triple loop, exact int32: C[M,N] = A[M,K] · Bᵀ with B
/// stored row-major as [N, K]. The packed kernel must match this
/// bit-for-bit; tests and the qgemm_sweep gate depend on it.
void qgemm_bt_naive(const std::int8_t* a, const std::int8_t* b_t,
                    std::int32_t* c, std::int64_t m, std::int64_t n,
                    std::int64_t k);

/// Packed, cache-blocked int8 GEMM with int32 output:
/// C[M,N] = A[M,K] · Bᵀ (B row-major [N, K]). Exactly equal to
/// qgemm_bt_naive for all inputs.
void qgemm_bt(const std::int8_t* a, const std::int8_t* b_t, std::int32_t* c,
              std::int64_t m, std::int64_t n, std::int64_t k);

/// As qgemm_bt, through an explicit `kernel` from qgemm_kernels().
void qgemm_bt_with_kernel(const QGemmKernel& kernel, const std::int8_t* a,
                          const std::int8_t* b_t, std::int32_t* c,
                          std::int64_t m, std::int64_t n, std::int64_t k);

/// Packed int8 GEMM with fused dequantizing epilogue writing fp32:
/// C[M,N] = epilogue(A[M,K] · Bᵀ). This is the hot path of every
/// quantized layer.
void qgemm_bt_dequant(const std::int8_t* a, const std::int8_t* b_t, float* c,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      const QGemmEpilogue& epilogue);

/// B panels packed once for repeated use (weights): per (kb, jp) panel,
/// s8 k-quads laid out as the kernel streams them, plus each column's
/// compensation −128·Σₖ b[j][k] (int32, padded to the kernel's nr).
class QGemmPackedB {
 public:
  QGemmPackedB() = default;
  /// Pack b_t ([n, k] row-major int8) for the dispatched kernel.
  QGemmPackedB(const std::int8_t* b_t, std::int64_t n, std::int64_t k);
  /// As above, packed for an explicit `kernel` from qgemm_kernels();
  /// qgemm_prepacked_dequant then runs that kernel.
  QGemmPackedB(const QGemmKernel& kernel, const std::int8_t* b_t,
               std::int64_t n, std::int64_t k);

  bool empty() const { return n_ == 0; }
  std::int64_t n() const { return n_; }
  std::int64_t k() const { return k_; }
  const QGemmKernel& kernel() const { return kernel_; }
  const std::int8_t* data() const { return panels_.as<std::int8_t>(); }
  const std::int32_t* compensation() const {
    return compensation_.as<std::int32_t>();
  }

 private:
  QGemmKernel kernel_;
  std::int64_t n_ = 0, k_ = 0;
  /// 64-byte aligned like every other kernel operand: the micro-kernel
  /// streams whole panels, and a vector's 16-byte malloc alignment left
  /// prepacked panels straddling cache lines.
  tensor::AlignedBuffer panels_;
  tensor::AlignedBuffer compensation_;
};

/// As qgemm_bt_dequant, but with B packed ahead of time. `a` may be
/// null only if m == 0.
void qgemm_prepacked_dequant(const std::int8_t* a, const QGemmPackedB& b,
                             float* c, std::int64_t m,
                             const QGemmEpilogue& epilogue);

/// Name of the dispatched int8 micro-kernel (`qgemm_kernels().front()`);
/// surfaces in bench reports so recorded speedups are attributable to an
/// ISA.
const char* qgemm_isa();

}  // namespace harvest::nn
