// Matrix-product kernels behind tensor::MatMul, MatMulAddBias,
// MatMulTransposedA and MatMulTransposedB. Two implementations compute the
// same values:
//   * blocked scalar kernels, written so each output element is one
//     ascending-k multiply-add chain (A·Bᵀ: sixteen lane chains, a fixed
//     tree fold and a k-tail chain). A Release build contracts the A·B and
//     Aᵀ·B chains and the A·Bᵀ lanes into FMAs; the A·Bᵀ k-tail and
//     short-k chains, which GCC may leave unfused (it does at
//     -march=sapphirerapids once they hold four or more terms), are
//     explicit MulAdd (fmaf) calls.
//   * AVX2/FMA and AVX-512 register tiles that run those chains with
//     explicit FMA instructions, without the scalar kernels' memory
//     round-trips. Their scalar remainders use std::fmaf, which is
//     correctly rounded, i.e. exactly vfmadd's scalar form.
// ActiveMatMulKernels() picks once per process: the tiles when the CPU can
// run them and a probe finds them bitwise equal to this build's scalar
// kernels on every tile shape class; otherwise the scalar kernels (portable
// builds, CPUs without AVX2, sanitizer builds at -O1, which do not contract).
// Every caller — training forward and backward, eval, serving — therefore
// gets the scalar kernels' bits; the probe only decides the speed.
#include <cmath>
#include <cstring>

#include "tensor/tensor.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace bootleg::tensor {

namespace {

// --- Blocked scalar kernels --------------------------------------------------

/// Rows of the B panel kept hot in cache while sweeping A rows.
constexpr int64_t kKTile = 64;

/// C rows [i0, i1) of C = A·B, k-tiled so each B panel is reused across the
/// row block. Per output element the k-accumulation order is ascending,
/// matching MatMulReference on finite data.
void ScalarMatMulRows(const float* pa, const float* pb, float* pc, int64_t i0,
                      int64_t i1, int64_t k, int64_t n) {
  for (int64_t kk0 = 0; kk0 < k; kk0 += kKTile) {
    const int64_t kk1 = std::min(k, kk0 + kKTile);
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      int64_t kk = kk0;
      // 4-way k-unroll: the four adds into crow[j] chain in the same
      // ascending order as four separate iterations (identical rounding),
      // but crow is loaded and stored once instead of four times.
      for (; kk + 4 <= kk1; kk += 4) {
        const float a0 = arow[kk], a1 = arow[kk + 1];
        const float a2 = arow[kk + 2], a3 = arow[kk + 3];
        const float* b0 = pb + kk * n;
        const float* b1 = b0 + n;
        const float* b2 = b1 + n;
        const float* b3 = b2 + n;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] = (((crow[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) +
                    a3 * b3[j];
        }
      }
      for (; kk < kk1; ++kk) {
        const float av = arow[kk];
        const float* brow = pb + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

/// C rows [i0, i1) of C = A·Bᵀ. A plain dot-product loop is a serial FP
/// dependency chain the compiler may not vectorize (FP addition is not
/// associative), so each dot product accumulates into kTBLanes independent
/// lanes — lane l sums terms kk ≡ l (mod kTBLanes) — and folds the lanes in
/// fixed index order. The order depends only on k, never on the row range.
constexpr int64_t kTBLanes = 16;

void ScalarMatMulTBRows(const float* pa, const float* pb, float* pc,
                        int64_t i0, int64_t i1, int64_t k, int64_t n) {
  if (k < kTBLanes) {
    // Short reductions (backward of vector-valued heads has k as small as 1):
    // every lane would be zero, so the fold is pure overhead. The branch
    // depends only on k.
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) {
          acc = MulAdd(arow[kk], brow[kk], acc);
        }
        crow[j] = acc;
      }
    }
    return;
  }
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float lanes[kTBLanes] = {0.0f};
      int64_t kk = 0;
      for (; kk + kTBLanes <= k; kk += kTBLanes) {
        for (int64_t l = 0; l < kTBLanes; ++l) {
          lanes[l] += arow[kk + l] * brow[kk + l];
        }
      }
      float tail = 0.0f;
      for (; kk < k; ++kk) tail = MulAdd(arow[kk], brow[kk], tail);
      // Tree fold: fixed halving order (16→8→4→2→1) so the result depends
      // only on k, and the upper-half adds vectorize instead of forming a
      // 16-deep serial add chain per output element.
      for (int64_t l = 0; l < 8; ++l) lanes[l] += lanes[l + 8];
      for (int64_t l = 0; l < 4; ++l) lanes[l] += lanes[l + 4];
      lanes[0] += lanes[2];
      lanes[1] += lanes[3];
      crow[j] = (lanes[0] + lanes[1]) + tail;
    }
  }
}

/// C rows [i0, i1) of C = Aᵀ·B for A [k,m]: the reduction axis walks A down a
/// column (stride m), k-tiled so B panels stay hot across the row block.
void ScalarMatMulTARows(const float* pa, const float* pb, float* pc,
                        int64_t i0, int64_t i1, int64_t k, int64_t m,
                        int64_t n) {
  for (int64_t kk0 = 0; kk0 < k; kk0 += kKTile) {
    const int64_t kk1 = std::min(k, kk0 + kKTile);
    for (int64_t i = i0; i < i1; ++i) {
      float* crow = pc + i * n;
      int64_t kk = kk0;
      // Same 4-way unroll as ScalarMatMulRows: ascending adds, one crow
      // round-trip per four reduction steps.
      for (; kk + 4 <= kk1; kk += 4) {
        const float a0 = pa[kk * m + i], a1 = pa[(kk + 1) * m + i];
        const float a2 = pa[(kk + 2) * m + i], a3 = pa[(kk + 3) * m + i];
        const float* b0 = pb + kk * n;
        const float* b1 = b0 + n;
        const float* b2 = b1 + n;
        const float* b3 = b2 + n;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] = (((crow[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) +
                    a3 * b3[j];
        }
      }
      for (; kk < kk1; ++kk) {
        const float av = pa[kk * m + i];
        const float* brow = pb + kk * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// --- AVX2/FMA and AVX-512 tiles --------------------------------------------

#if BOOTLEG_SIMD_AVX2

/// Columns [j0, n) of rows [i, i+RB), j0 past the last full 16-column
/// block: one ymm accumulator per row for an 8-wide block, then std::fmaf
/// scalar chains (fmaf is correctly rounded, i.e. exactly vfmadd's scalar
/// form). RB > 1 interleaves independent row chains for ILP; per-element
/// order is untouched. Handles n < 8 entirely in the scalar loop (matvec
/// scoring).
template <int RB>
void MatMulColsTail(const float* pa, const float* pb, const float* bias,
                    float* pc, int64_t i, int64_t j0, int64_t k, int64_t n) {
  const float* arow[RB];
  float* crow[RB];
  for (int r = 0; r < RB; ++r) {
    arow[r] = pa + (i + r) * k;
    crow[r] = pc + (i + r) * n;
  }
  int64_t j = j0;
  if (j + 8 <= n) {
    __m256 acc[RB];
    for (int r = 0; r < RB; ++r) acc[r] = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(pb + kk * n + j);
      for (int r = 0; r < RB; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(arow[r][kk]), b0, acc[r]);
      }
    }
    if (bias != nullptr) {
      const __m256 bv = _mm256_loadu_ps(bias + j);
      for (int r = 0; r < RB; ++r) acc[r] = _mm256_add_ps(acc[r], bv);
    }
    for (int r = 0; r < RB; ++r) _mm256_storeu_ps(crow[r] + j, acc[r]);
    j += 8;
  }
  for (; j < n; ++j) {
    float acc[RB] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
      const float bv = pb[kk * n + j];
      for (int r = 0; r < RB; ++r) acc[r] = std::fmaf(arow[r][kk], bv, acc[r]);
    }
    for (int r = 0; r < RB; ++r) {
      crow[r][j] = bias != nullptr ? acc[r] + bias[j] : acc[r];
    }
  }
}

/// All n output columns for rows [i, i+RB) of C = A·B (+ optional bias).
/// Register tile: RB rows × 16 columns (2 ymm accumulators per row), one
/// ascending-k FMA chain per element — the same chain the contracted scalar
/// kernel produces, without its per-k-tile memory round-trips.
template <int RB>
void MatMulTile(const float* pa, const float* pb, const float* bias, float* pc,
                int64_t i, int64_t k, int64_t n) {
  const float* arow[RB];
  float* crow[RB];
  for (int r = 0; r < RB; ++r) {
    arow[r] = pa + (i + r) * k;
    crow[r] = pc + (i + r) * n;
  }
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0[RB], acc1[RB];
    for (int r = 0; r < RB; ++r) {
      acc0[r] = _mm256_setzero_ps();
      acc1[r] = _mm256_setzero_ps();
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * n + j;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      for (int r = 0; r < RB; ++r) {
        const __m256 av = _mm256_set1_ps(arow[r][kk]);
        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
      }
    }
    if (bias != nullptr) {
      const __m256 bv0 = _mm256_loadu_ps(bias + j);
      const __m256 bv1 = _mm256_loadu_ps(bias + j + 8);
      for (int r = 0; r < RB; ++r) {
        acc0[r] = _mm256_add_ps(acc0[r], bv0);
        acc1[r] = _mm256_add_ps(acc1[r], bv1);
      }
    }
    for (int r = 0; r < RB; ++r) {
      _mm256_storeu_ps(crow[r] + j, acc0[r]);
      _mm256_storeu_ps(crow[r] + j + 8, acc1[r]);
    }
  }
  if (j < n) MatMulColsTail<RB>(pa, pb, bias, pc, i, j, k, n);
}

/// 6 rows × 16 columns with individually named accumulators: the array form
/// above makes GCC spill the accumulator file to the stack inside the k loop;
/// 12 named __m256 + two B panels + one broadcast fit the 16 ymm registers
/// exactly and sustain ~2 FMA/cycle. Same ascending-k chains as the template.
void MatMulTile6x16(const float* pa, const float* pb, const float* bias,
                    float* pc, int64_t i, int64_t j, int64_t k, int64_t n) {
  const float* a0 = pa + i * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  const float* a4 = a3 + k;
  const float* a5 = a4 + k;
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = pb + kk * n + j;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 av;
    av = _mm256_set1_ps(a0[kk]);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_set1_ps(a1[kk]);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_set1_ps(a2[kk]);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_set1_ps(a3[kk]);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_set1_ps(a4[kk]);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_set1_ps(a5[kk]);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  if (bias != nullptr) {
    const __m256 bv0 = _mm256_loadu_ps(bias + j);
    const __m256 bv1 = _mm256_loadu_ps(bias + j + 8);
    c00 = _mm256_add_ps(c00, bv0);
    c01 = _mm256_add_ps(c01, bv1);
    c10 = _mm256_add_ps(c10, bv0);
    c11 = _mm256_add_ps(c11, bv1);
    c20 = _mm256_add_ps(c20, bv0);
    c21 = _mm256_add_ps(c21, bv1);
    c30 = _mm256_add_ps(c30, bv0);
    c31 = _mm256_add_ps(c31, bv1);
    c40 = _mm256_add_ps(c40, bv0);
    c41 = _mm256_add_ps(c41, bv1);
    c50 = _mm256_add_ps(c50, bv0);
    c51 = _mm256_add_ps(c51, bv1);
  }
  float* crow = pc + i * n + j;
  _mm256_storeu_ps(crow, c00);
  _mm256_storeu_ps(crow + 8, c01);
  crow += n;
  _mm256_storeu_ps(crow, c10);
  _mm256_storeu_ps(crow + 8, c11);
  crow += n;
  _mm256_storeu_ps(crow, c20);
  _mm256_storeu_ps(crow + 8, c21);
  crow += n;
  _mm256_storeu_ps(crow, c30);
  _mm256_storeu_ps(crow + 8, c31);
  crow += n;
  _mm256_storeu_ps(crow, c40);
  _mm256_storeu_ps(crow + 8, c41);
  crow += n;
  _mm256_storeu_ps(crow, c50);
  _mm256_storeu_ps(crow + 8, c51);
}

void MatMulRowsYmm(const float* pa, const float* pb, const float* bias,
                   float* pc, int64_t i0, int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + 6 <= i1; i += 6) {
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) MatMulTile6x16(pa, pb, bias, pc, i, j, k, n);
    if (j < n) MatMulColsTail<6>(pa, pb, bias, pc, i, j, k, n);
  }
  for (; i + 4 <= i1; i += 4) MatMulTile<4>(pa, pb, bias, pc, i, k, n);
  for (; i < i1; ++i) MatMulTile<1>(pa, pb, bias, pc, i, k, n);
}

#if BOOTLEG_SIMD_AVX512

/// 8 rows × 32 columns in zmm registers (16 named accumulators + 2 B panels
/// + 1 broadcast = 19 of 32 zmm). Vector width does not touch rounding:
/// each element is still one ascending-k FMA chain, so 512-bit results
/// equal the 256-bit and contracted-scalar ones bitwise. With two 512-bit
/// FMA pipes this roughly doubles flops/cycle over the ymm tile; 16 FMAs
/// per two B-panel loads keeps the loop FMA-bound even when the unaligned
/// 64-byte loads split cache lines, and 8-row blocks tile the common
/// power-of-two row counts exactly (no scalar row tail at m = 128).
void MatMulTile8x32(const float* pa, const float* pb, const float* bias,
                    float* pc, int64_t i, int64_t j, int64_t k, int64_t n) {
  const float* a0 = pa + i * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  const float* a4 = a3 + k;
  const float* a5 = a4 + k;
  const float* a6 = a5 + k;
  const float* a7 = a6 + k;
  __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
  __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
  __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
  __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
  __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
  __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();
  __m512 c60 = _mm512_setzero_ps(), c61 = _mm512_setzero_ps();
  __m512 c70 = _mm512_setzero_ps(), c71 = _mm512_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = pb + kk * n + j;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
    __m512 av;
    av = _mm512_set1_ps(a0[kk]);
    c00 = _mm512_fmadd_ps(av, b0, c00);
    c01 = _mm512_fmadd_ps(av, b1, c01);
    av = _mm512_set1_ps(a1[kk]);
    c10 = _mm512_fmadd_ps(av, b0, c10);
    c11 = _mm512_fmadd_ps(av, b1, c11);
    av = _mm512_set1_ps(a2[kk]);
    c20 = _mm512_fmadd_ps(av, b0, c20);
    c21 = _mm512_fmadd_ps(av, b1, c21);
    av = _mm512_set1_ps(a3[kk]);
    c30 = _mm512_fmadd_ps(av, b0, c30);
    c31 = _mm512_fmadd_ps(av, b1, c31);
    av = _mm512_set1_ps(a4[kk]);
    c40 = _mm512_fmadd_ps(av, b0, c40);
    c41 = _mm512_fmadd_ps(av, b1, c41);
    av = _mm512_set1_ps(a5[kk]);
    c50 = _mm512_fmadd_ps(av, b0, c50);
    c51 = _mm512_fmadd_ps(av, b1, c51);
    av = _mm512_set1_ps(a6[kk]);
    c60 = _mm512_fmadd_ps(av, b0, c60);
    c61 = _mm512_fmadd_ps(av, b1, c61);
    av = _mm512_set1_ps(a7[kk]);
    c70 = _mm512_fmadd_ps(av, b0, c70);
    c71 = _mm512_fmadd_ps(av, b1, c71);
  }
  if (bias != nullptr) {
    const __m512 bv0 = _mm512_loadu_ps(bias + j);
    const __m512 bv1 = _mm512_loadu_ps(bias + j + 16);
    c00 = _mm512_add_ps(c00, bv0);
    c01 = _mm512_add_ps(c01, bv1);
    c10 = _mm512_add_ps(c10, bv0);
    c11 = _mm512_add_ps(c11, bv1);
    c20 = _mm512_add_ps(c20, bv0);
    c21 = _mm512_add_ps(c21, bv1);
    c30 = _mm512_add_ps(c30, bv0);
    c31 = _mm512_add_ps(c31, bv1);
    c40 = _mm512_add_ps(c40, bv0);
    c41 = _mm512_add_ps(c41, bv1);
    c50 = _mm512_add_ps(c50, bv0);
    c51 = _mm512_add_ps(c51, bv1);
    c60 = _mm512_add_ps(c60, bv0);
    c61 = _mm512_add_ps(c61, bv1);
    c70 = _mm512_add_ps(c70, bv0);
    c71 = _mm512_add_ps(c71, bv1);
  }
  float* crow = pc + i * n + j;
  _mm512_storeu_ps(crow, c00);
  _mm512_storeu_ps(crow + 16, c01);
  crow += n;
  _mm512_storeu_ps(crow, c10);
  _mm512_storeu_ps(crow + 16, c11);
  crow += n;
  _mm512_storeu_ps(crow, c20);
  _mm512_storeu_ps(crow + 16, c21);
  crow += n;
  _mm512_storeu_ps(crow, c30);
  _mm512_storeu_ps(crow + 16, c31);
  crow += n;
  _mm512_storeu_ps(crow, c40);
  _mm512_storeu_ps(crow + 16, c41);
  crow += n;
  _mm512_storeu_ps(crow, c50);
  _mm512_storeu_ps(crow + 16, c51);
  crow += n;
  _mm512_storeu_ps(crow, c60);
  _mm512_storeu_ps(crow + 16, c61);
  crow += n;
  _mm512_storeu_ps(crow, c70);
  _mm512_storeu_ps(crow + 16, c71);
}

/// 8 rows × 16 columns, one zmm accumulator per row.
void MatMulTile8x16z(const float* pa, const float* pb, const float* bias,
                     float* pc, int64_t i, int64_t j, int64_t k, int64_t n) {
  const float* a0 = pa + i * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  const float* a4 = a3 + k;
  const float* a5 = a4 + k;
  const float* a6 = a5 + k;
  const float* a7 = a6 + k;
  __m512 c0 = _mm512_setzero_ps();
  __m512 c1 = _mm512_setzero_ps();
  __m512 c2 = _mm512_setzero_ps();
  __m512 c3 = _mm512_setzero_ps();
  __m512 c4 = _mm512_setzero_ps();
  __m512 c5 = _mm512_setzero_ps();
  __m512 c6 = _mm512_setzero_ps();
  __m512 c7 = _mm512_setzero_ps();
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m512 b0 = _mm512_loadu_ps(pb + kk * n + j);
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(a0[kk]), b0, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(a1[kk]), b0, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(a2[kk]), b0, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(a3[kk]), b0, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(a4[kk]), b0, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(a5[kk]), b0, c5);
    c6 = _mm512_fmadd_ps(_mm512_set1_ps(a6[kk]), b0, c6);
    c7 = _mm512_fmadd_ps(_mm512_set1_ps(a7[kk]), b0, c7);
  }
  if (bias != nullptr) {
    const __m512 bv = _mm512_loadu_ps(bias + j);
    c0 = _mm512_add_ps(c0, bv);
    c1 = _mm512_add_ps(c1, bv);
    c2 = _mm512_add_ps(c2, bv);
    c3 = _mm512_add_ps(c3, bv);
    c4 = _mm512_add_ps(c4, bv);
    c5 = _mm512_add_ps(c5, bv);
    c6 = _mm512_add_ps(c6, bv);
    c7 = _mm512_add_ps(c7, bv);
  }
  _mm512_storeu_ps(pc + (i + 0) * n + j, c0);
  _mm512_storeu_ps(pc + (i + 1) * n + j, c1);
  _mm512_storeu_ps(pc + (i + 2) * n + j, c2);
  _mm512_storeu_ps(pc + (i + 3) * n + j, c3);
  _mm512_storeu_ps(pc + (i + 4) * n + j, c4);
  _mm512_storeu_ps(pc + (i + 5) * n + j, c5);
  _mm512_storeu_ps(pc + (i + 6) * n + j, c6);
  _mm512_storeu_ps(pc + (i + 7) * n + j, c7);
}

void MatMulRowsZmm(const float* pa, const float* pb, const float* bias,
                   float* pc, int64_t i0, int64_t i1, int64_t k, int64_t n) {
  int64_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    int64_t j = 0;
    for (; j + 32 <= n; j += 32) MatMulTile8x32(pa, pb, bias, pc, i, j, k, n);
    if (j + 16 <= n) {
      MatMulTile8x16z(pa, pb, bias, pc, i, j, k, n);
      j += 16;
    }
    if (j < n) MatMulColsTail<8>(pa, pb, bias, pc, i, j, k, n);
  }
  for (; i + 4 <= i1; i += 4) MatMulTile<4>(pa, pb, bias, pc, i, k, n);
  for (; i < i1; ++i) MatMulTile<1>(pa, pb, bias, pc, i, k, n);
}
#endif  // BOOTLEG_SIMD_AVX512

/// Rows [i0, i1) of C = A·B (+ bias): picks the widest tile the CPU runs.
/// Vector width cannot affect results, only speed.
void SimdMatMulRows(const float* pa, const float* pb, const float* bias, float* pc,
                int64_t i0, int64_t i1, int64_t k, int64_t n) {
#if BOOTLEG_SIMD_AVX512
  if (util::CpuHasAvx512() && n >= 16) {
    MatMulRowsZmm(pa, pb, bias, pc, i0, i1, k, n);
    return;
  }
#endif
  MatMulRowsYmm(pa, pb, bias, pc, i0, i1, k, n);
}

/// Rows [i, i+RB) of C = Aᵀ·B for A [k,m]: MatMulTile with the reduction
/// walking A down a column (stride m).
template <int RB>
void MatMulTATile(const float* pa, const float* pb, float* pc, int64_t i,
                  int64_t k, int64_t m, int64_t n) {
  float* crow[RB];
  for (int r = 0; r < RB; ++r) crow[r] = pc + (i + r) * n;
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc[RB];
    for (int r = 0; r < RB; ++r) acc[r] = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(pb + kk * n + j);
      const float* acol = pa + kk * m + i;
      for (int r = 0; r < RB; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(acol[r]), b0, acc[r]);
      }
    }
    for (int r = 0; r < RB; ++r) _mm256_storeu_ps(crow[r] + j, acc[r]);
  }
  for (; j < n; ++j) {
    float acc[RB] = {};
    for (int64_t kk = 0; kk < k; ++kk) {
      const float bv = pb[kk * n + j];
      const float* acol = pa + kk * m + i;
      for (int r = 0; r < RB; ++r) acc[r] = std::fmaf(acol[r], bv, acc[r]);
    }
    for (int r = 0; r < RB; ++r) crow[r][j] = acc[r];
  }
}

void SimdMatMulTARows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t m, int64_t n) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) MatMulTATile<4>(pa, pb, pc, i, k, m, n);
  for (; i < i1; ++i) MatMulTATile<1>(pa, pb, pc, i, k, m, n);
}

/// One output row of C = A·Bᵀ, k >= 16, JB columns at a time. Mirrors the
/// scalar kernel's 16-lane accumulator exactly: acc_lo lane p sums kk ≡ p (mod 16),
/// acc_hi lane p sums kk ≡ p+8, the fold below is its fixed
/// 16→8→4→2→1 halving expressed as vector adds, and the k-tail is a scalar
/// FMA chain folded in last.
template <int JB>
void MatMulTBTile(const float* arow, const float* pb, float* crow, int64_t j,
                  int64_t k, float alpha) {
  const float* brow[JB];
  for (int c = 0; c < JB; ++c) brow[c] = pb + (j + c) * k;
  __m256 lo[JB], hi[JB];
  for (int c = 0; c < JB; ++c) {
    lo[c] = _mm256_setzero_ps();
    hi[c] = _mm256_setzero_ps();
  }
  int64_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    const __m256 a0 = _mm256_loadu_ps(arow + kk);
    const __m256 a1 = _mm256_loadu_ps(arow + kk + 8);
    for (int c = 0; c < JB; ++c) {
      lo[c] = _mm256_fmadd_ps(a0, _mm256_loadu_ps(brow[c] + kk), lo[c]);
      hi[c] = _mm256_fmadd_ps(a1, _mm256_loadu_ps(brow[c] + kk + 8), hi[c]);
    }
  }
  for (int c = 0; c < JB; ++c) {
    float tail = 0.0f;
    for (int64_t kt = kk; kt < k; ++kt) {
      tail = std::fmaf(arow[kt], brow[c][kt], tail);
    }
    const __m256 v = _mm256_add_ps(lo[c], hi[c]);  // lanes[l] += lanes[l+8]
    __m128 x = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));  // += lanes[l+4]
    x = _mm_add_ps(x, _mm_movehl_ps(x, x));              // += lanes[l+2]
    const float pair0 = _mm_cvtss_f32(x);
    const float pair1 = _mm_cvtss_f32(_mm_shuffle_ps(x, x, 0x1));
    float out = (pair0 + pair1) + tail;
    if (alpha != 1.0f) out *= alpha;
    crow[j + c] = out;
  }
}

void SimdMatMulTBRows(const float* pa, const float* pb, float* pc, int64_t i0,
                  int64_t i1, int64_t k, int64_t n, float alpha) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) MatMulTBTile<4>(arow, pb, crow, j, k, alpha);
    for (; j < n; ++j) MatMulTBTile<1>(arow, pb, crow, j, k, alpha);
  }
}

#endif  // BOOTLEG_SIMD_AVX2

/// True when `impl` selects the tiles. Asking for them on a binary or CPU
/// without AVX2+FMA is a caller bug.
bool UseSimd(MatMulImpl impl) {
  if (impl == MatMulImpl::kScalar) return false;
  BOOTLEG_CHECK_MSG(util::CpuHasAvx2Fma(),
                    "SIMD matmul kernels requested on a CPU/binary without "
                    "AVX2+FMA");
  return true;
}

/// C = alpha·C on rows [i0, i1): the score-scale epilogue of the scalar
/// A·Bᵀ kernel, one rounded multiply per element as tensor::Scale does.
void ScaleRows(float* pc, int64_t i0, int64_t i1, int64_t n, float alpha) {
  for (int64_t idx = i0 * n; idx < i1 * n; ++idx) pc[idx] *= alpha;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

/// True when the tiles reproduce the scalar kernels bitwise on shapes that
/// reach every tile and tail: 16/8-wide and scalar column tails, 8/6/4-row
/// blocks and row tails, k crossing a kKTile boundary and k % 4 tails, the
/// n = 1 matvec the scorer runs, and A·Bᵀ with and without k tails and with
/// the score-scale epilogue.
bool ProbeTilesMatchScalar() {
  if (!util::CpuHasAvx2Fma()) return false;
  util::Rng rng(20260808);
  for (const MatMulShape& s : kMatMulProbeShapes) {
    const Tensor a = Tensor::Randn({s.m, s.k}, &rng, 1.0f);
    const Tensor b = Tensor::Randn({s.k, s.n}, &rng, 1.0f);
    const Tensor bias = Tensor::Randn({s.n}, &rng, 1.0f);
    const Tensor at = Tensor::Randn({s.k, s.m}, &rng, 1.0f);
    const Tensor bt = Tensor::Randn({s.n, s.k}, &rng, 1.0f);
    for (const Tensor* bv : {static_cast<const Tensor*>(nullptr), &bias}) {
      if (!BitEqual(MatMulWith(MatMulImpl::kSimd, a, b, bv),
                    MatMulWith(MatMulImpl::kScalar, a, b, bv))) {
        return false;
      }
    }
    if (!BitEqual(MatMulTransposedAWith(MatMulImpl::kSimd, at, b),
                  MatMulTransposedAWith(MatMulImpl::kScalar, at, b))) {
      return false;
    }
    for (const float alpha : {1.0f, 0.25f, 0.57735f}) {
      if (!BitEqual(MatMulTransposedBWith(MatMulImpl::kSimd, a, bt, alpha),
                    MatMulTransposedBWith(MatMulImpl::kScalar, a, bt, alpha))) {
        return false;
      }
    }
  }
  return true;
}

MatMulImpl ActiveImpl() {
  return ActiveMatMulKernels().simd_active ? MatMulImpl::kSimd
                                           : MatMulImpl::kScalar;
}

}  // namespace

const MatMulKernels& ActiveMatMulKernels() {
  static const MatMulKernels kernels = [] {
    MatMulKernels k;
    k.simd_active = ProbeTilesMatchScalar();
    if (k.simd_active) {
      k.isa = util::CpuHasAvx512() ? "avx2+fma+avx512f" : "avx2+fma";
    } else {
      k.isa = util::CpuHasAvx2Fma() ? "avx2+fma(fallback)" : "scalar";
    }
    return k;
  }();
  return kernels;
}

Tensor MatMulWith(MatMulImpl impl, const Tensor& a, const Tensor& b,
                  const Tensor* bias) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  BOOTLEG_CHECK_EQ(k, b.size(0));
  if (bias != nullptr) BOOTLEG_CHECK_EQ(bias->numel(), n);
  Tensor c({m, n});
  if (m == 0 || n == 0) return c;
  const float* pa = a.data();
  const float* pb = b.data();
  const float* pbias = bias != nullptr ? bias->data() : nullptr;
  float* pc = c.data();
  if (UseSimd(impl)) {
#if BOOTLEG_SIMD_AVX2
    SimdMatMulRows(pa, pb, pbias, pc, 0, m, k, n);
    return c;
#endif
  }
  ScalarMatMulRows(pa, pb, pc, 0, m, k, n);
  if (pbias == nullptr) return c;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) pc[i * n + j] += pbias[j];
  }
  return c;
}

Tensor MatMulTransposedAWith(MatMulImpl impl, const Tensor& a,
                             const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  BOOTLEG_CHECK_EQ(k, b.size(0));
  Tensor c({m, n});
  if (m == 0 || k == 0 || n == 0) return c;
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (UseSimd(impl)) {
#if BOOTLEG_SIMD_AVX2
    SimdMatMulTARows(pa, pb, pc, 0, m, k, m, n);
    return c;
#endif
  }
  ScalarMatMulTARows(pa, pb, pc, 0, m, k, m, n);
  return c;
}

Tensor MatMulTransposedBWith(MatMulImpl impl, const Tensor& a,
                             const Tensor& b, float alpha) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  BOOTLEG_CHECK_EQ(k, b.size(1));
  Tensor c({m, n});
  if (m == 0 || n == 0) return c;
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // k < 16 takes the scalar kernel's short-reduction branch: one MulAdd
  // chain per element, which no tile is worth writing for. Attention scores
  // have k = head_dim >= 16, and the short products (backward of
  // vector-valued heads) are tiny.
  if (UseSimd(impl) && k >= 16) {
#if BOOTLEG_SIMD_AVX2
    SimdMatMulTBRows(pa, pb, pc, 0, m, k, n, alpha);
    return c;
#endif
  }
  ScalarMatMulTBRows(pa, pb, pc, 0, m, k, n);
  if (alpha != 1.0f) ScaleRows(pc, 0, m, n, alpha);
  return c;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return MatMulWith(ActiveImpl(), a, b, nullptr);
}

Tensor MatMulAddBias(const Tensor& x, const Tensor& w, const Tensor& bias) {
  return MatMulWith(ActiveImpl(), x, w, &bias);
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  return MatMulTransposedAWith(ActiveImpl(), a, b);
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b, float alpha) {
  return MatMulTransposedBWith(ActiveImpl(), a, b, alpha);
}

Tensor MatMulReference(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  BOOTLEG_CHECK_EQ(k, b.size(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // ikj loop order keeps the inner loop streaming over contiguous memory.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransposedBReference(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  BOOTLEG_CHECK_EQ(k, b.size(1));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      pc[i * n + j] = acc;
    }
  }
  return c;
}

Tensor MatMulTransposedAReference(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(b.dim(), 2);
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  BOOTLEG_CHECK_EQ(k, b.size(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

}  // namespace bootleg::tensor
