#ifndef BOOTLEG_NN_ATTENTION_H_
#define BOOTLEG_NN_ATTENTION_H_

#include <string>

#include "nn/layers.h"
#include "nn/param_store.h"
#include "tensor/autograd.h"
#include "util/rng.h"

namespace bootleg::nn {

/// One independent attention group inside batched query/key tensors: query
/// rows [q_offset, q_offset + q_rows) attend only over key rows [k_offset,
/// k_offset + k_rows). The serving engine packs many sentences into one
/// tensor and describes each sentence with one segment, so the projection
/// matmuls run batched while the attention cores stay per-sentence.
struct AttentionSegment {
  int64_t q_offset = 0;
  int64_t q_rows = 0;
  int64_t k_offset = 0;
  int64_t k_rows = 0;
};

/// Standard multi-head attention (Vaswani et al.). Queries attend over
/// keys/values; pass the same tensor for self-attention. Shapes are 2-D:
/// queries [r, hidden], keys [s, hidden] → output [r, hidden].
class MultiHeadAttention {
 public:
  MultiHeadAttention(ParameterStore* store, const std::string& prefix,
                     int64_t hidden, int64_t num_heads, util::Rng* rng);

  tensor::Var Attend(const tensor::Var& queries, const tensor::Var& keys) const;

  /// Forward-only fast path over independent segments. Every segment's output
  /// rows are bit-identical to Attend() on that segment's rows alone: the
  /// q/k/v/o projections are row-wise (batching cannot change them) and the
  /// score/softmax/value cores run per segment on the same kernels.
  tensor::Tensor AttendSegmentsValue(
      const tensor::Tensor& queries, const tensor::Tensor& keys,
      const std::vector<AttentionSegment>& segments) const;

  int64_t num_heads() const { return num_heads_; }

 private:
  int64_t hidden_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

/// Transformer-style attention block: MHA with skip connection and layer
/// norm, followed by a feed-forward sublayer with skip connection and layer
/// norm. This is the "MHA ... with a feed-forward layer and skip
/// connections" building block of Bootleg's Phrase2Ent and Ent2Ent modules.
class AttentionBlock {
 public:
  AttentionBlock(ParameterStore* store, const std::string& prefix,
                 int64_t hidden, int64_t num_heads, int64_t ff_inner,
                 util::Rng* rng);

  /// Cross-attention form (Phrase2Ent): queries over external keys.
  tensor::Var Forward(const tensor::Var& queries, const tensor::Var& keys,
                      util::Rng* rng, bool train) const;

  /// Self-attention form (Ent2Ent).
  tensor::Var Forward(const tensor::Var& x, util::Rng* rng, bool train) const {
    return Forward(x, x, rng, train);
  }

  /// Forward-only eval-mode fast path over independent segments (see
  /// MultiHeadAttention::AttendSegmentsValue). Dropout is the identity at
  /// eval time, so per-segment rows match Forward(..., train=false) exactly.
  tensor::Tensor ForwardSegmentsValue(
      const tensor::Tensor& queries, const tensor::Tensor& keys,
      const std::vector<AttentionSegment>& segments) const;

 private:
  MultiHeadAttention mha_;
  LayerNormLayer ln1_;
  FeedForward ff_;
  LayerNormLayer ln2_;
  Dropout dropout_;
};

/// Additive (Bahdanau) attention pooling a set of vectors [t, dim] into one
/// [1, dim]. Bootleg uses it to merge an entity's multiple type embeddings
/// and multiple relation embeddings (Sec. 3.1).
class AdditiveAttention {
 public:
  AdditiveAttention(ParameterStore* store, const std::string& prefix,
                    int64_t dim, int64_t attn_dim, util::Rng* rng);

  tensor::Var Pool(const tensor::Var& items) const;

  /// Forward-only fast path, bit-identical to Pool (same kernels, no tape).
  tensor::Tensor PoolValue(const tensor::Tensor& items) const;

 private:
  Linear proj_;
  tensor::Var score_vec_;  // [attn_dim, 1]
};

}  // namespace bootleg::nn

#endif  // BOOTLEG_NN_ATTENTION_H_
