#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

namespace bootleg::tensor {

namespace {

int64_t NumelOf(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    BOOTLEG_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(NumelOf(shape_)), 0.0f);
}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  BOOTLEG_CHECK_EQ(NumelOf(shape_), static_cast<int64_t>(data_.size()));
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(std::vector<int64_t> shape, util::Rng* rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng->Normal(0.0, stddev));
  return t;
}

Tensor Tensor::RandUniform(std::vector<int64_t> shape, util::Rng* rng, float limit) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng->Uniform(-limit, limit));
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t({n, n});
  for (int64_t i = 0; i < n; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::FromVector(std::vector<float> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return Tensor({n}, std::move(values));
}

Tensor Tensor::Reshape(std::vector<int64_t> shape) const {
  BOOTLEG_CHECK_EQ(NumelOf(shape), numel());
  return Tensor(std::move(shape), data_);
}

void Tensor::Fill(float value) {
  for (float& v : data_) v = value;
}

void Tensor::Add(const Tensor& other) {
  BOOTLEG_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) dst[i] += src[i];
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  BOOTLEG_CHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0, n = numel(); i < n; ++i) dst[i] += alpha * src[i];
}

void Tensor::Scale(float alpha) {
  for (float& v : data_) v *= alpha;
}

float Tensor::Sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

std::string Tensor::ToString(int64_t max_elems) const {
  std::ostringstream ss;
  ss << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) ss << ",";
    ss << shape_[i];
  }
  ss << "] {";
  const int64_t n = std::min<int64_t>(numel(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) ss << ", ";
    ss << data_[static_cast<size_t>(i)];
  }
  if (numel() > n) ss << ", ...";
  ss << "}";
  return ss.str();
}

Tensor Transpose(const Tensor& a) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0), n = a.size(1);
  Tensor t({n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.Add(b);
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.Axpy(-1.0f, b);
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK(a.SameShape(b));
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  for (int64_t i = 0, n = c.numel(); i < n; ++i) pc[i] *= pb[i];
  return c;
}

Tensor Scale(const Tensor& a, float alpha) {
  Tensor c = a;
  c.Scale(alpha);
  return c;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK_EQ(bias.dim(), 1);
  BOOTLEG_CHECK_EQ(a.size(1), bias.size(0));
  Tensor c = a;
  const int64_t rows = a.size(0), cols = a.size(1);
  float* pc = c.data();
  const float* pb = bias.data();
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) pc[i * cols + j] += pb[j];
  }
  return c;
}

Tensor SoftmaxRows(const Tensor& a) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  const int64_t rows = a.size(0), cols = a.size(1);
  Tensor c({rows, cols});
  if (rows == 0 || cols == 0) return c;
  const float* pa = a.data();
  float* pc = c.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* src = pa + i * cols;
    float* dst = pc + i * cols;
    float mx = src[0];
    for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, src[j]);
    double total = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      dst[j] = std::exp(src[j] - mx);
      total += dst[j];
    }
    const float inv = static_cast<float>(1.0 / total);
    for (int64_t j = 0; j < cols; ++j) dst[j] *= inv;
  }
  return c;
}

Tensor LogSoftmaxRows(const Tensor& a) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  const int64_t rows = a.size(0), cols = a.size(1);
  Tensor c({rows, cols});
  if (rows == 0 || cols == 0) return c;
  const float* pa = a.data();
  float* pc = c.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* src = pa + i * cols;
    float* dst = pc + i * cols;
    float mx = src[0];
    for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, src[j]);
    double total = 0.0;
    for (int64_t j = 0; j < cols; ++j) total += std::exp(src[j] - mx);
    const float lse = mx + static_cast<float>(std::log(total));
    for (int64_t j = 0; j < cols; ++j) dst[j] = src[j] - lse;
  }
  return c;
}

Tensor Max(const Tensor& a, const Tensor& b) {
  BOOTLEG_CHECK(a.SameShape(b));
  Tensor c = a;
  float* pc = c.data();
  const float* pb = b.data();
  for (int64_t i = 0, n = c.numel(); i < n; ++i) {
    pc[i] = std::max(pc[i], pb[i]);
  }
  return c;
}

Tensor Relu(const Tensor& a) {
  Tensor c = a;
  float* pc = c.data();
  for (int64_t i = 0, n = c.numel(); i < n; ++i) {
    pc[i] = pc[i] > 0.0f ? pc[i] : 0.0f;
  }
  return c;
}

Tensor TanhT(const Tensor& a) {
  Tensor c = a;
  float* pc = c.data();
  for (int64_t i = 0, n = c.numel(); i < n; ++i) pc[i] = Tanh(pc[i]);
  return c;
}

Tensor Gelu(const Tensor& a) {
  Tensor c = a;
  float* pc = c.data();
  for (int64_t i = 0, n = c.numel(); i < n; ++i) {
    const float v = pc[i];
    pc[i] = 0.5f * v * (1.0f + Tanh(GeluInner(v)));
  }
  return c;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  BOOTLEG_CHECK(!parts.empty());
  const int64_t rows = parts[0].size(0);
  int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    BOOTLEG_CHECK_EQ(p.dim(), 2);
    BOOTLEG_CHECK_EQ(p.size(0), rows);
    total_cols += p.size(1);
  }
  Tensor c({rows, total_cols});
  int64_t off = 0;
  for (const Tensor& p : parts) {
    const int64_t cols = p.size(1);
    for (int64_t i = 0; i < rows; ++i) {
      const float* src = p.data() + i * cols;
      float* dst = c.data() + i * total_cols + off;
      for (int64_t j = 0; j < cols; ++j) dst[j] = src[j];
    }
    off += cols;
  }
  return c;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  BOOTLEG_CHECK(!parts.empty());
  const int64_t cols = parts[0].size(1);
  int64_t total_rows = 0;
  for (const Tensor& p : parts) {
    BOOTLEG_CHECK_EQ(p.dim(), 2);
    BOOTLEG_CHECK_EQ(p.size(1), cols);
    total_rows += p.size(0);
  }
  Tensor c({total_rows, cols});
  int64_t off = 0;
  for (const Tensor& p : parts) {
    const int64_t n = p.numel();
    float* dst = c.data() + off;
    for (int64_t i = 0; i < n; ++i) dst[i] = p.data()[i];
    off += n;
  }
  return c;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK(start >= 0 && len >= 0 && start + len <= a.size(1));
  const int64_t rows = a.size(0), cols = a.size(1);
  Tensor c({rows, len});
  for (int64_t i = 0; i < rows; ++i) {
    const float* src = a.data() + i * cols + start;
    float* dst = c.data() + i * len;
    for (int64_t j = 0; j < len; ++j) dst[j] = src[j];
  }
  return c;
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t len) {
  BOOTLEG_CHECK_EQ(a.dim(), 2);
  BOOTLEG_CHECK(start >= 0 && len >= 0 && start + len <= a.size(0));
  const int64_t cols = a.size(1);
  Tensor c({len, cols});
  const float* src = a.data() + start * cols;
  float* dst = c.data();
  for (int64_t i = 0; i < len * cols; ++i) dst[i] = src[i];
  return c;
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& ids) {
  BOOTLEG_CHECK_EQ(table.dim(), 2);
  const int64_t cols = table.size(1);
  Tensor c({static_cast<int64_t>(ids.size()), cols});
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    BOOTLEG_CHECK(id >= 0 && id < table.size(0));
    const float* src = table.data() + id * cols;
    float* dst = c.data() + static_cast<int64_t>(i) * cols;
    for (int64_t j = 0; j < cols; ++j) dst[j] = src[j];
  }
  return c;
}

Tensor LayerNormRows(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     float eps, Tensor* xhat, Tensor* inv_std) {
  BOOTLEG_CHECK_EQ(x.dim(), 2);
  const int64_t rows = x.size(0), cols = x.size(1);
  BOOTLEG_CHECK_EQ(gamma.numel(), cols);
  BOOTLEG_CHECK_EQ(beta.numel(), cols);
  if (xhat != nullptr) *xhat = Tensor({rows, cols});
  if (inv_std != nullptr) *inv_std = Tensor({rows});
  Tensor out({rows, cols});
  const float* xp = x.data();
  const float* gp = gamma.data();
  const float* bp = beta.data();
  float* xhp = xhat != nullptr ? xhat->data() : nullptr;
  float* isp = inv_std != nullptr ? inv_std->data() : nullptr;
  float* op = out.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* xrow = xp + i * cols;
    double mean = 0.0;
    for (int64_t j = 0; j < cols; ++j) mean += xrow[j];
    mean /= cols;
    double var = 0.0;
    for (int64_t j = 0; j < cols; ++j) {
      const double d = xrow[j] - mean;
      var += d * d;
    }
    var /= cols;
    const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
    if (isp != nullptr) isp[i] = is;
    const float meanf = static_cast<float>(mean);
    float* orow = op + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      const float xh = (xrow[j] - meanf) * is;
      if (xhp != nullptr) xhp[i * cols + j] = xh;
      orow[j] = xh * gp[j] + bp[j];
    }
  }
  return out;
}

Tensor AddScaledIdentity(const Tensor& k, float w) {
  BOOTLEG_CHECK_EQ(k.dim(), 2);
  BOOTLEG_CHECK_EQ(k.size(0), k.size(1));
  Tensor out = k;
  const int64_t n = k.size(0);
  for (int64_t i = 0; i < n; ++i) out.at(i, i) += w;
  return out;
}

int64_t ArgMax(const Tensor& a) {
  BOOTLEG_CHECK_GT(a.numel(), 0);
  int64_t best = 0;
  for (int64_t i = 1; i < a.numel(); ++i) {
    if (a.at(i) > a.at(best)) best = i;
  }
  return best;
}

float Norm(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.vec()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

bool AllFinite(const Tensor& a) {
  for (float v : a.vec()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace bootleg::tensor
