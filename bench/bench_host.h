// Host description the BENCH_*.json writers record next to their rows, so a
// file says which machine and which kernels produced it.
#ifndef BOOTLEG_BENCH_BENCH_HOST_H_
#define BOOTLEG_BENCH_BENCH_HOST_H_

#include <unistd.h>

#include <string>

#include "tensor/tensor.h"

namespace bootleg::bench {

inline long HostNproc() { return sysconf(_SC_NPROCESSORS_ONLN); }

/// The SIMD extensions this CPU reports, space-separated.
inline std::string HostIsa() {
  std::string isa;
  const auto add = [&isa](bool has, const char* name) {
    if (!has) return;
    if (!isa.empty()) isa += ' ';
    isa += name;
  };
  __builtin_cpu_init();
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
  return isa;
}

/// {"nproc": N, "isa": "...", "matmul_kernels": "..."} as one JSON object.
inline std::string HostJson() {
  return "{\"nproc\": " + std::to_string(HostNproc()) + ", \"isa\": \"" +
         HostIsa() + "\", \"matmul_kernels\": \"" +
         tensor::ActiveMatMulKernels().isa + "\"}";
}

}  // namespace bootleg::bench

#endif  // BOOTLEG_BENCH_BENCH_HOST_H_
