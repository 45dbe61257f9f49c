#pragma once
// Multi-head self-attention and the transformer encoder stack.
//
// This is deliberately the *standard* dense attention — APF's whole premise
// is that the attention mechanism and model stay intact while the
// pre-processing shrinks N (paper Table I, "Ours" row).

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace apf::nn {

/// Inference-only fused attention core: softmax(scale * q @ k^T, mask) @ v
/// computed per (batch*head, query-row-block) on reused thread-local
/// scratch, so no [B*H, L, L] score/probability tensors are ever
/// materialized. q, k, v are [B*H, L, Dh]; key_mask (optional) is [B, L]
/// with 1 = valid key; batch is B (so heads = q.size(0) / batch). Rows
/// whose keys are all masked produce zero context, matching
/// ops::softmax_lastdim. Bitwise identical to the composed
/// bmm/scale/softmax/bmm pipeline for every query row up to each item's
/// last valid key: the row-block size matches the gemm panel size, and the
/// softmax is ops::softmax_row itself, run in place on the score panel
/// over the valid key prefix (its lane order makes that prefix row equal
/// the full masked row, see tensor/ops.h).
/// Work on padding is pruned — keys past the last valid one are never
/// touched, and (for self-attention, l == n) padded query rows are defined
/// to be zero where the taped path leaves them unspecified; model outputs
/// are unaffected because masked softmax / scatter / pooling never let
/// padding tokens leak downstream.
Tensor fused_masked_attention(const Tensor& q, const Tensor& k,
                              const Tensor& v, float scale,
                              const Tensor* key_mask, std::int64_t batch);

/// Standard multi-head self-attention with fused QKV projection.
/// Complexity O(B * H * L^2 * Dh) — quadratic in sequence length, which is
/// exactly the cost APF attacks by shrinking L.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(std::int64_t dim, std::int64_t heads, Rng& rng);

  /// x: [B, L, D]; key_mask (optional): [B, L] with 1 = valid token.
  /// Padding keys receive zero attention; padding query rows produce
  /// unspecified values and must be masked downstream. When GradMode is
  /// disabled the forward takes the fused_masked_attention route
  /// (bitwise-identical values, no tape, no L x L tensors) and the qkv /
  /// output projections skip each item's padded suffix rows (layers.h).
  Var forward(const Var& x, const Tensor* key_mask = nullptr) const;

  std::int64_t dim() const { return dim_; }
  std::int64_t heads() const { return heads_; }

 private:
  std::int64_t dim_, heads_, head_dim_;
  Linear qkv_, proj_;
};

/// Pre-LN transformer encoder layer:
///   x = x + Attn(LN(x));  x = x + MLP(LN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(std::int64_t dim, std::int64_t heads,
                          std::int64_t mlp_hidden, Rng& rng,
                          float dropout = 0.f);

  Var forward(const Var& x, const Tensor* key_mask, Rng& rng) const;

 private:
  LayerNorm ln1_, ln2_;
  MultiHeadAttention attn_;
  Mlp mlp_;
  float dropout_;
};

/// Stack of encoder layers with a final LayerNorm. forward_collect also
/// returns the hidden state after selected layers (UNETR skip connections).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(std::int64_t dim, std::int64_t depth, std::int64_t heads,
                     std::int64_t mlp_hidden, Rng& rng, float dropout = 0.f);

  Var forward(const Var& x, const Tensor* key_mask, Rng& rng) const;

  /// Runs the stack; hidden[i] receives the state after layer tap_layers[i]
  /// (1-based). The returned Var is the final normed output.
  Var forward_collect(const Var& x, const Tensor* key_mask, Rng& rng,
                      const std::vector<int>& tap_layers,
                      std::vector<Var>& hidden) const;

  std::int64_t depth() const {
    return static_cast<std::int64_t>(layers_.size());
  }

 private:
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  LayerNorm final_ln_;
};

}  // namespace apf::nn
