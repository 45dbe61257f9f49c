#pragma once
// Core dense layers: Linear, LayerNorm, Embedding, MLP.
//
// Linear, LayerNorm and Mlp accept an optional [B, L] validity mask. While
// gradients are enabled the mask is ignored (training always computes every
// row). On the grad-free serving path a padded batch activates the
// mask-aware fast path: rows past each item's last valid token are skipped
// and returned as zeros, and the valid rows are bitwise identical to the
// full computation — the gemm row-stability contract (tensor/gemm.h) plus
// the shared row kernels (ops::layernorm_row, ops::gelu_row) make the
// row subset computationally indistinguishable from the full pass. Padding
// never leaks downstream: attention prunes padded queries/keys, and the
// scatter / pooling stages drop invalid tokens.
//
// Quantized inference: when the calling thread's active_precision() is
// int8 (tensor/quantize.h; installed per-forward by serve::InferenceEngine)
// and the int8 kernel is available, the grad-free mask path of Linear —
// and, through it, Mlp — routes each item's valid rows through the
// quantized int8_linear kernel instead of fp32 gemm. Weights are quantized
// and packed lazily on first use and cached on the module; a grad-enabled
// forward invalidates the cache (the optimizer may have stepped the
// weights). LayerNorm, attention scores and softmax always stay fp32.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/thread_annotations.h"
#include "nn/module.h"
#include "core/rng.h"
#include "tensor/quantize.h"

namespace apf::nn {

/// Per-item "compute prefix" of a padded batch: for each row of a [B, L]
/// validity mask (1 = valid), the index of the last valid token plus one.
/// Shared by the fused attention kernel and the mask-aware dense layers so
/// every consumer agrees on which suffix rows are skippable padding.
std::vector<std::int64_t> valid_prefix_lengths(const Tensor& key_mask);

/// y = x @ W^T + b for x of shape [..., in_features].
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);

  /// Accepts rank >= 2 input with last dim == in_features. key_mask
  /// (optional, [B, L] matching a rank-3 x) enables the grad-free
  /// mask-aware path described in the file header; it is ignored while
  /// grad is enabled or when every row is valid.
  Var forward(const Var& x, const Tensor* key_mask = nullptr) const;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  /// The lazily-built quantized weight pack (file header). Shared-ptr so a
  /// forward keeps its pack alive even if a concurrent grad-enabled call
  /// invalidates the cache mid-flight.
  std::shared_ptr<const Int8PackedWeights> int8_packed() const;

  std::int64_t in_, out_;
  Var weight_;  ///< [out, in]
  Var bias_;    ///< [out] (undefined when bias = false)
  mutable Mutex int8_mu_;
  mutable std::shared_ptr<const Int8PackedWeights> int8_cache_
      APF_GUARDED_BY(int8_mu_);
};

/// LayerNorm over the last dimension with learned affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t dim, float eps = 1e-5f);
  /// key_mask (optional, [B, L] matching a rank-3 x): grad-free mask-aware
  /// row skipping, see the file header.
  Var forward(const Var& x, const Tensor* key_mask = nullptr) const;

 private:
  float eps_;
  Var gamma_;  ///< [dim], init 1
  Var beta_;   ///< [dim], init 0
};

/// Lookup table: indices -> rows of a learned [num_embeddings, dim] matrix.
class Embedding : public Module {
 public:
  Embedding(std::int64_t num_embeddings, std::int64_t dim, Rng& rng);
  /// Returns [indices.size(), dim]; differentiable scatter-add backward.
  Var forward(const std::vector<std::int64_t>& indices) const;

 private:
  std::int64_t n_, dim_;
  Var weight_;
};

/// Transformer MLP block: Linear -> GELU -> Linear (hidden = ratio * dim).
class Mlp : public Module {
 public:
  Mlp(std::int64_t dim, std::int64_t hidden, Rng& rng);
  /// key_mask (optional, [B, L] matching a rank-3 x): grad-free mask-aware
  /// row skipping through both Linears and the GELU, see the file header.
  Var forward(const Var& x, const Tensor* key_mask = nullptr) const;

 private:
  Linear fc1_, fc2_;
};

}  // namespace apf::nn
