// Compile-time and runtime x86 SIMD detection, shared by the tensor matmul
// tiles and the store's int8 dequant core. Kernels are compiled whenever the
// build targets AVX2/FMA (`-march=native` on such hosts) and selected at
// runtime, so a portable build or an older CPU runs the scalar bodies.
#ifndef BOOTLEG_UTIL_CPU_H_
#define BOOTLEG_UTIL_CPU_H_

#if defined(__AVX2__) && defined(__FMA__)
#define BOOTLEG_SIMD_AVX2 1
#include <immintrin.h>
#else
#define BOOTLEG_SIMD_AVX2 0
#endif

// 512-bit width upgrade: compiled whenever the target ISA has the
// foundation subset, picked at runtime.
#if BOOTLEG_SIMD_AVX2 && defined(__AVX512F__)
#define BOOTLEG_SIMD_AVX512 1
#else
#define BOOTLEG_SIMD_AVX512 0
#endif

namespace bootleg::util {

/// True when the binary carries AVX2/FMA kernels and the CPU can run them.
inline bool CpuHasAvx2Fma() {
#if BOOTLEG_SIMD_AVX2
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

/// True when the binary carries the 512-bit kernels and the CPU can run them.
inline bool CpuHasAvx512() {
#if BOOTLEG_SIMD_AVX512
  static const bool ok = CpuHasAvx2Fma() && __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

}  // namespace bootleg::util

#endif  // BOOTLEG_UTIL_CPU_H_
