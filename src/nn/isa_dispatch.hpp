#pragma once

/// \file isa_dispatch.hpp
/// Private to `nn/`: the guard and attributes for the kernels that pick
/// their ISA at run time (the packed fp32 and int8 GEMM micro-kernels in
/// gemm.cpp and qgemm.cpp, the fused attention kernels in attention.cpp
/// and the quantization body in quant.cpp).
///
/// The repo builds at the portable x86-64 baseline (SSE2) so the binary
/// runs anywhere. Kernel bodies are additionally compiled under
/// `target(...)` wrappers, and the best variant is picked once per
/// process with `__builtin_cpu_supports`. Kernel bodies and their
/// callees must be force-inlined into the wrappers: an out-of-line
/// callee would silently stay SSE2. Dispatch is by feature flags, not
/// `target_clones("arch=...")`, because arch clones match the CPU
/// *model* and virtualized CPUs often report none.
///
/// The wrappers exist only on x86-64 GCC outside ThreadSanitizer; every
/// other build (non-x86, clang, TSan) runs the portable kernels alone.

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define HARVEST_ISA_DISPATCH 1
#define HARVEST_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define HARVEST_TARGET_AVX512 __attribute__((target("avx512f,avx2,fma")))
#define HARVEST_TARGET_AVXVNNI __attribute__((target("avxvnni,avx2,fma")))
#define HARVEST_TARGET_AVX512VNNI \
  __attribute__((target("avx512vnni,avx512f,avx2,fma")))
#else
#define HARVEST_ISA_DISPATCH 0
#define HARVEST_TARGET_AVX2
#define HARVEST_TARGET_AVX512
#define HARVEST_TARGET_AVXVNNI
#define HARVEST_TARGET_AVX512VNNI
#endif
#define HARVEST_FORCE_INLINE inline __attribute__((always_inline))

namespace harvest::nn::isa {

/// Host runs AVX2 with FMA (false when dispatch is compiled out).
inline bool has_avx2_fma() {
#if HARVEST_ISA_DISPATCH
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// Host runs AVX-512F (and AVX2 with FMA; false when dispatch is
/// compiled out).
inline bool has_avx512f() {
#if HARVEST_ISA_DISPATCH
  return has_avx2_fma() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

/// Host runs AVX-VNNI, the VEX-encoded 256-bit `vpdpbusd` (and AVX2
/// with FMA; false when dispatch is compiled out).
inline bool has_avxvnni() {
#if HARVEST_ISA_DISPATCH
  return has_avx2_fma() && __builtin_cpu_supports("avxvnni");
#else
  return false;
#endif
}

/// Host runs AVX-512-VNNI, the 512-bit `vpdpbusd` (and AVX-512F; false
/// when dispatch is compiled out).
inline bool has_avx512vnni() {
#if HARVEST_ISA_DISPATCH
  return has_avx512f() && __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

}  // namespace harvest::nn::isa
