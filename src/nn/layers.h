#ifndef BOOTLEG_NN_LAYERS_H_
#define BOOTLEG_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/param_store.h"
#include "tensor/autograd.h"
#include "util/rng.h"

namespace bootleg::nn {

/// Fully-connected layer y = xW + b over 2-D inputs [n, in].
class Linear {
 public:
  Linear(ParameterStore* store, const std::string& prefix, int64_t in,
         int64_t out, util::Rng* rng);

  tensor::Var Forward(const tensor::Var& x) const;

  /// Forward-only fast path: same values as Forward, no tape allocation,
  /// with the bias add fused into the matmul (tensor::MatMulAddBias).
  tensor::Tensor ForwardValue(const tensor::Tensor& x) const;

  int64_t in_dim() const { return in_; }
  int64_t out_dim() const { return out_; }

 private:
  int64_t in_;
  int64_t out_;
  tensor::Var weight_;  // [in, out]
  tensor::Var bias_;    // [out]
};

/// Row-wise layer normalization with learned gain and bias.
class LayerNormLayer {
 public:
  LayerNormLayer(ParameterStore* store, const std::string& prefix, int64_t dim);

  tensor::Var Forward(const tensor::Var& x) const {
    return tensor::LayerNorm(x, gamma_, beta_);
  }

  tensor::Tensor ForwardValue(const tensor::Tensor& x) const {
    return tensor::LayerNormRows(x, gamma_.value(), beta_.value());
  }

 private:
  tensor::Var gamma_;
  tensor::Var beta_;
};

/// Inverted dropout: scales surviving activations by 1/(1-p) at train time,
/// identity at eval time.
class Dropout {
 public:
  explicit Dropout(float p) : p_(p) { BOOTLEG_CHECK(p >= 0.0f && p < 1.0f); }

  tensor::Var Apply(const tensor::Var& x, util::Rng* rng, bool train) const;

  float p() const { return p_; }

 private:
  float p_;
};

/// Position-wise feed-forward block: Linear → GELU → Linear.
class FeedForward {
 public:
  FeedForward(ParameterStore* store, const std::string& prefix, int64_t dim,
              int64_t inner_dim, util::Rng* rng);

  tensor::Var Forward(const tensor::Var& x, util::Rng* rng, bool train) const;

  /// Eval-mode forward without tape (dropout is the identity at eval time).
  tensor::Tensor ForwardValue(const tensor::Tensor& x) const;

 private:
  Linear fc1_;
  Linear fc2_;
  Dropout dropout_;
};

/// Multi-layer perceptron with ReLU activations between layers. Used to fuse
/// [u_e, t_e, r_e] into the candidate representation (paper Sec. 3.1) and for
/// the mention type-prediction head (Appendix A).
class Mlp {
 public:
  Mlp(ParameterStore* store, const std::string& prefix,
      const std::vector<int64_t>& dims, util::Rng* rng);

  tensor::Var Forward(const tensor::Var& x, util::Rng* rng, bool train) const;

  /// Eval-mode forward without tape (dropout is the identity at eval time).
  tensor::Tensor ForwardValue(const tensor::Tensor& x) const;

 private:
  std::vector<Linear> layers_;
  Dropout dropout_;
};

/// Returns the sinusoidal positional-encoding table [max_len, dim] of
/// Vaswani et al., used for both word positions and the mention position
/// feature added to candidate representations (Appendix A).
tensor::Tensor SinusoidalPositionTable(int64_t max_len, int64_t dim);

}  // namespace bootleg::nn

#endif  // BOOTLEG_NN_LAYERS_H_
