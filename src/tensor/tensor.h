#ifndef BOOTLEG_TENSOR_TENSOR_H_
#define BOOTLEG_TENSOR_TENSOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace bootleg::tensor {

/// Dense row-major float tensor. This is the value type of the training
/// substrate: all model math runs on 1-D and 2-D instances (per-sentence
/// batching keeps higher ranks unnecessary). Copyable and movable; copies
/// are deep.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-filled tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// Builds a tensor from explicit shape and data; sizes must agree.
  Tensor(std::vector<int64_t> shape, std::vector<float> data);

  static Tensor Zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape)); }
  static Tensor Full(std::vector<int64_t> shape, float value);
  static Tensor Ones(std::vector<int64_t> shape) { return Full(std::move(shape), 1.0f); }

  /// Gaussian initialization with the given standard deviation.
  static Tensor Randn(std::vector<int64_t> shape, util::Rng* rng, float stddev = 1.0f);

  /// Uniform initialization in [-limit, limit].
  static Tensor RandUniform(std::vector<int64_t> shape, util::Rng* rng, float limit);

  /// Identity matrix of size n×n.
  static Tensor Eye(int64_t n);

  /// 1-D tensor from values.
  static Tensor FromVector(std::vector<float> values);

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t axis) const {
    BOOTLEG_CHECK(axis >= 0 && axis < dim());
    return shape_[static_cast<size_t>(axis)];
  }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  /// 1-D element access.
  float& at(int64_t i) {
    BOOTLEG_CHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  float at(int64_t i) const {
    BOOTLEG_CHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  /// 2-D element access; tensor must be rank 2.
  float& at(int64_t r, int64_t c) {
    BOOTLEG_CHECK_EQ(dim(), 2);
    BOOTLEG_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at(int64_t r, int64_t c) const {
    BOOTLEG_CHECK_EQ(dim(), 2);
    BOOTLEG_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Returns a copy reshaped to `shape` (numel must be preserved).
  Tensor Reshape(std::vector<int64_t> shape) const;

  /// In-place fill.
  void Fill(float value);

  /// In-place accumulate: this += other (same shape).
  void Add(const Tensor& other);

  /// In-place axpy: this += alpha * other (same shape).
  void Axpy(float alpha, const Tensor& other);

  /// In-place scale.
  void Scale(float alpha);

  /// Sum of all elements.
  float Sum() const;

  /// Debug rendering, e.g. "[2,3] {1.0, 2.0, ...}".
  std::string ToString(int64_t max_elems = 8) const;

 private:
  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

// ---------------------------------------------------------------------------
// Free-function kernels over plain tensors. These carry no autograd; the
// autograd layer (autograd.h) composes them and supplies backward rules.
// ---------------------------------------------------------------------------

/// C = A·B for 2-D A [m,k] and B [k,n]. Runs the active matmul kernels (see
/// ActiveMatMulKernels) on the calling thread, like every kernel here: cores
/// come from the callers (batch workers, trainer and eval shards), so results
/// are the same at every pool size.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = X·W + bias (row broadcast) for X [m,k], W [k,n], bias [n]: the affine
/// map of nn::Linear with the bias add in the matmul epilogue. Bitwise equal
/// to AddRowBroadcast(MatMul(x, w), bias), one fewer pass over C.
Tensor MatMulAddBias(const Tensor& x, const Tensor& w, const Tensor& bias);

/// C = alpha·(A·Bᵀ) for 2-D A [m,k] and B [n,k]. Fused to avoid
/// materializing Bᵀ; alpha rides the epilogue (the attention score scale),
/// bitwise equal to Scale(MatMulTransposedB(a, b), alpha).
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b, float alpha = 1.0f);

/// C = Aᵀ·B for 2-D A [k,m] and B [k,n].
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// Which kernels run the matmuls above. Chosen once per process, on first
/// use: the AVX2/FMA tiles (AVX-512 where the CPU has it) when the CPU can
/// run them and they reproduce the blocked scalar kernels bitwise on every
/// kMatMulProbeShapes entry; otherwise the blocked scalar kernels. Results
/// are the same either way; only speed differs.
struct MatMulKernels {
  /// "avx2+fma+avx512f" | "avx2+fma" | "avx2+fma(fallback)" (the probe
  /// failed, e.g. a sanitizer build at -O1) | "scalar".
  const char* isa = "scalar";
  bool simd_active = false;
};
const MatMulKernels& ActiveMatMulKernels();

/// Shapes the probe checks: each reaches a different tile or tail.
struct MatMulShape {
  int64_t m, k, n;
};
inline constexpr MatMulShape kMatMulProbeShapes[] = {
    {1, 16, 40}, {2, 5, 3},    {3, 33, 7},   {4, 64, 16},  {5, 67, 35},
    {6, 130, 24}, {9, 64, 1},  {8, 64, 48},  {11, 20, 37}, {13, 128, 128},
    {5, 37, 9},  {3, 16, 5},   {4, 7, 3},    {2, 48, 2},   {7, 21, 13},
};

/// The kernels of MatMul / MatMulAddBias (bias may be null) /
/// MatMulTransposedA / MatMulTransposedB with the implementation chosen by
/// the caller instead of the probe: the probe and the kernel tests compare
/// the two. kSimd requires util::CpuHasAvx2Fma().
enum class MatMulImpl { kScalar, kSimd };
Tensor MatMulWith(MatMulImpl impl, const Tensor& a, const Tensor& b,
                  const Tensor* bias);
Tensor MatMulTransposedAWith(MatMulImpl impl, const Tensor& a,
                             const Tensor& b);
Tensor MatMulTransposedBWith(MatMulImpl impl, const Tensor& a, const Tensor& b,
                             float alpha);

/// Naive single-threaded kernels preserved verbatim from before the blocked
/// rewrite: the test oracle. MatMul and MatMulTransposedA match them bitwise
/// on finite data; MatMulTransposedB sums in sixteen lanes and matches its
/// reference closely. The bench harness reports speedups against them.
Tensor MatMulReference(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedBReference(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedAReference(const Tensor& a, const Tensor& b);

/// 2-D transpose.
Tensor Transpose(const Tensor& a);

/// Elementwise sum of same-shape tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference of same-shape tensors.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise product of same-shape tensors.
Tensor Mul(const Tensor& a, const Tensor& b);

/// alpha * A.
Tensor Scale(const Tensor& a, float alpha);

/// A [n,d] + bias [d] broadcast over rows.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

/// Row-wise softmax of a 2-D tensor.
Tensor SoftmaxRows(const Tensor& a);

/// Row-wise log-softmax of a 2-D tensor.
Tensor LogSoftmaxRows(const Tensor& a);

/// Elementwise max.
Tensor Max(const Tensor& a, const Tensor& b);

/// a·b + c, rounded once wherever the CPU has FMA. Spelled out so that a
/// vectorized loop body and its scalar remainder round identically, whatever
/// the compiler would contract; without FMA there is nothing to contract.
inline float MulAdd(float a, float b, float c) {
#if defined(__FMA__)
  return std::fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

/// The model's tanh: a clamped odd/even rational approximation (Eigen's
/// ptanh_float), branch-free so loops over it vectorize. Max abs error
/// against std::tanh is below 1e-6 (3e-7 measured on [-10, 10]); it is odd
/// bitwise, maps ±inf to ±1 and propagates NaN. The clamp is the largest
/// input whose result still rounds to at most 1 under this build's MulAdd.
inline float Tanh(float a) {
#if defined(__FMA__)
  constexpr float kClamp = 7.99881172180175781f;
#else
  constexpr float kClamp = 7.90531110763549805f;
#endif
  const float x = std::min(std::max(a, -kClamp), kClamp);
  const float x2 = x * x;
  float p = MulAdd(x2, -2.76076847742355e-16f, 2.00018790482477e-13f);
  p = MulAdd(x2, p, -8.60467152213735e-11f);
  p = MulAdd(x2, p, 5.12229709037114e-08f);
  p = MulAdd(x2, p, 1.48572235717979e-05f);
  p = MulAdd(x2, p, 6.37261928875436e-04f);
  p = MulAdd(x2, p, 4.89352455891786e-03f);
  float q = MulAdd(x2, 1.19825839466702e-06f, 1.18534705686654e-04f);
  q = MulAdd(x2, q, 2.26843463243900e-03f);
  q = MulAdd(x2, q, 4.89352518554385e-03f);
  return (x * p) / q;
}

/// GELU's tanh argument sqrt(2/π)·(x + 0.044715·x³): the one equation the
/// forward (Gelu) and the autograd backward share.
inline constexpr float kGeluSqrt2OverPi = 0.7978845608f;
inline constexpr float kGeluCubic = 0.044715f;
inline float GeluInner(float x) {
  return kGeluSqrt2OverPi * MulAdd(kGeluCubic * x * x, x, x);
}

/// Elementwise ReLU / tanh (Tanh above) / GELU (tanh approximation).
Tensor Relu(const Tensor& a);
Tensor TanhT(const Tensor& a);
Tensor Gelu(const Tensor& a);

/// Concatenates 2-D tensors with equal row counts along columns.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Concatenates 2-D tensors with equal column counts along rows.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Copies `len` columns starting at `start` from a 2-D tensor.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);

/// Copies `len` rows starting at `start` from a 2-D tensor.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t len);

/// Gathers rows of a 2-D table by index.
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& ids);

/// Row-wise layer normalization y = (x - mean) / sqrt(var + eps) * gamma +
/// beta. This is the forward computation of the autograd LayerNorm op; when
/// `xhat` / `inv_std` are non-null they receive the normalized rows and the
/// per-row 1/std that the backward pass needs. Keeping both paths on this one
/// kernel is what makes the no-tape inference path bit-identical to training.
Tensor LayerNormRows(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     float eps = 1e-5f, Tensor* xhat = nullptr,
                     Tensor* inv_std = nullptr);

/// K + w·I for square K (value-path form of the autograd op).
Tensor AddScaledIdentity(const Tensor& k, float w);

/// Row index of the maximum in a 1-D tensor.
int64_t ArgMax(const Tensor& a);

/// Frobenius / L2 norm.
float Norm(const Tensor& a);

/// True if all finite.
bool AllFinite(const Tensor& a);

}  // namespace bootleg::tensor

#endif  // BOOTLEG_TENSOR_TENSOR_H_
