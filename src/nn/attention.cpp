#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "core/parallel_for.h"

namespace apf::nn {
namespace {

// Grad-free head split: one column band of qkv [B, L, 3D] gathered
// directly into heads layout [B*H, L, Dh]. Pure copies — value-identical
// to the slice -> reshape -> permute({0,2,1,3}) -> reshape composition it
// replaces, without the two intermediate tensors and index arithmetic.
Tensor split_heads(const Tensor& qkv, std::int64_t b, std::int64_t l,
                   std::int64_t heads, std::int64_t dh, std::int64_t off) {
  const std::int64_t row = qkv.size(2);  // 3D
  Tensor out = Tensor::empty({b * heads, l, dh});
  const float* src = qkv.data();
  float* dst = out.data();
  parallel_for(b * heads, [&](std::int64_t t) {
    const std::int64_t bi = t / heads, h = t % heads;
    const float* s = src + bi * l * row + off + h * dh;
    float* d = dst + t * l * dh;
    for (std::int64_t i = 0; i < l; ++i)
      std::memcpy(d + i * dh, s + i * row,
                  static_cast<std::size_t>(dh) * sizeof(float));
  }, /*grain=*/4);
  return out;
}

// Inverse gather: [B*H, L, Dh] context back to [B, L, D].
Tensor merge_heads(const Tensor& ctx, std::int64_t b, std::int64_t l,
                   std::int64_t heads, std::int64_t dh) {
  Tensor out = Tensor::empty({b, l, heads * dh});
  const float* src = ctx.data();
  float* dst = out.data();
  parallel_for(b * heads, [&](std::int64_t t) {
    const std::int64_t bi = t / heads, h = t % heads;
    const float* s = src + t * l * dh;
    float* d = dst + bi * l * heads * dh + h * dh;
    for (std::int64_t i = 0; i < l; ++i)
      std::memcpy(d + i * heads * dh, s + i * dh,
                  static_cast<std::size_t>(dh) * sizeof(float));
  }, /*grain=*/4);
  return out;
}

}  // namespace

Tensor fused_masked_attention(const Tensor& q, const Tensor& k,
                              const Tensor& v, float scale,
                              const Tensor* key_mask, std::int64_t batch) {
  APF_CHECK(q.ndim() == 3 && k.ndim() == 3 && v.ndim() == 3,
            "fused_attention: need [B*H, L, Dh], got " << q.str() << ", "
                                                       << k.str() << ", "
                                                       << v.str());
  const std::int64_t bh = q.size(0);
  const std::int64_t l = q.size(1);
  const std::int64_t dh = q.size(2);
  const std::int64_t n = k.size(1);   // key/value sequence length
  const std::int64_t dv = v.size(2);  // value feature width
  APF_CHECK(k.size(0) == bh && v.size(0) == bh,
            "fused_attention: batch*heads mismatch");
  APF_CHECK(k.size(2) == dh, "fused_attention: q/k feature dims differ");
  APF_CHECK(v.size(1) == n, "fused_attention: k/v lengths differ");
  APF_CHECK(batch >= 1 && bh % batch == 0,
            "fused_attention: " << bh << " rows not divisible by batch "
                                << batch);
  const std::int64_t heads = bh / batch;
  const float* pm = nullptr;
  if (key_mask != nullptr) {
    APF_CHECK(key_mask->ndim() == 2 && key_mask->size(0) == batch &&
                  key_mask->size(1) == n,
              "fused_attention: key_mask " << key_mask->str() << " vs [B="
                                           << batch << ", N=" << n << "]");
    pm = key_mask->data();
  }

  // Per-item effective length: keys past the last valid one contribute zero
  // probability, so every gemm can stop there. For self-attention (l == n)
  // the same bound prunes padded *query* rows: their outputs are
  // contractually unspecified, and the fused path defines them as zero —
  // this is where batched serving with padded sequences wins big, since
  // the taped path pays full L x L attention on padding. The mask-aware
  // dense layers use the same prefix (valid_prefix_lengths), so everything
  // downstream of a padded row agrees on what is skippable.
  std::vector<std::int64_t> n_eff;
  if (pm != nullptr) {
    n_eff = valid_prefix_lengths(*key_mask);
  } else {
    n_eff.assign(static_cast<std::size_t>(batch), n);
  }
  const bool prune_queries = (l == n);

  Tensor ctx({bh, l, dv});  // zero-init: pruned query rows stay zero
  const std::int64_t nblk = (l + kGemmRowPanel - 1) / kGemmRowPanel;
  const float* pq = q.data();
  const float* pk = k.data();
  const float* pv = v.data();
  float* pc = ctx.data();
  // One task per (batch*head, query-row-panel). The nested gemm calls all
  // see m <= kGemmRowPanel (one panel), so they stay inline on whichever
  // thread runs the task; the kernel parallelizes at this outer level and
  // never re-enters the scheduler from inside a task. The thread_local
  // scratch below is safe for the same reason: no wait happens while it
  // holds live data.
  parallel_for(bh * nblk, [&](std::int64_t task) {
    const std::int64_t bi = task / nblk;
    const std::int64_t i0 = (task % nblk) * kGemmRowPanel;
    const std::int64_t ncols = n_eff[static_cast<std::size_t>(bi / heads)];
    const std::int64_t qlim = prune_queries ? ncols : l;
    if (i0 >= qlim || ncols == 0) return;  // all-padding panel: zeros
    const std::int64_t rows = std::min(kGemmRowPanel, qlim - i0);
    // Reused per-thread scratch: one row-panel of attention scores. This
    // replaces the [B*H, L, L] score and probability tensors of the taped
    // path and stays cache-resident across the three stages.
    thread_local std::vector<float> scores;
    scores.resize(static_cast<std::size_t>(kGemmRowPanel * n));
    float* s = scores.data();
    gemm(false, true, rows, ncols, dh, 1.f, pq + (bi * l + i0) * dh, dh,
         pk + bi * n * dh, dh, 0.f, s, ncols);
    const float* mrow = pm ? pm + (bi / heads) * n : nullptr;
    for (std::int64_t r = 0; r < rows; ++r) {
      float* srow = s + r * ncols;
      // Scale in a separate elementwise pass so rounding matches the
      // composed scale(bmm(q, k^T)) reference bitwise.
      for (std::int64_t j = 0; j < ncols; ++j) srow[j] *= scale;
      // The softmax_lastdim row kernel, in place. Keys past ncols are all
      // masked, and its lane order makes the prefix row match the full
      // masked row bitwise.
      ops::softmax_row(srow, mrow, ncols, srow);
    }
    gemm(false, false, rows, dv, ncols, 1.f, s, ncols, pv + bi * n * dv, dv,
         0.f, pc + (bi * l + i0) * dv, dv);
  }, /*grain=*/1);
  return ctx;
}

MultiHeadAttention::MultiHeadAttention(std::int64_t dim, std::int64_t heads,
                                       Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      qkv_(dim, 3 * dim, rng),
      proj_(dim, dim, rng) {
  APF_CHECK(dim % heads == 0,
            "MHA: dim " << dim << " not divisible by heads " << heads);
  add_child("qkv", qkv_);
  add_child("proj", proj_);
}

Var MultiHeadAttention::forward(const Var& x, const Tensor* key_mask) const {
  const std::int64_t b = x.size(0), l = x.size(1);
  APF_CHECK(x.size(2) == dim_, "MHA: input dim " << x.size(2) << " vs " << dim_);

  // key_mask reaches the projections too: grad-free, they skip each item's
  // padded suffix rows (bitwise-neutral for valid rows, see layers.h).
  Var qkv = qkv_.forward(x, key_mask);  // [B, L, 3D]
  const float scale = 1.f / std::sqrt(static_cast<float>(head_dim_));

  if (!ag::GradMode::is_enabled()) {
    // Grad-free fast path: same values as the taped pipeline below (the
    // fused kernel is bitwise identical, the head gathers are pure
    // copies), but no tape nodes, no [B*H, L, L] score/probability
    // tensors, and no slice/permute intermediates.
    Tensor ctx = fused_masked_attention(
        split_heads(qkv.val(), b, l, heads_, head_dim_, 0),
        split_heads(qkv.val(), b, l, heads_, head_dim_, dim_),
        split_heads(qkv.val(), b, l, heads_, head_dim_, 2 * dim_), scale,
        key_mask, b);
    Tensor merged = merge_heads(ctx, b, l, heads_, head_dim_);
    return proj_.forward(Var::constant(merged), key_mask);
  }

  // Split into q, k, v then lay out as [B*H, L, Dh].
  auto to_heads = [&](const Var& t) {
    Var r = ag::reshape(t, {b, l, heads_, head_dim_});
    r = ag::permute(r, {0, 2, 1, 3});  // [B, H, L, Dh]
    return ag::reshape(r, {b * heads_, l, head_dim_});
  };
  Var q = to_heads(ag::slice(qkv, 2, 0, dim_));
  Var k = to_heads(ag::slice(qkv, 2, dim_, dim_));
  Var v = to_heads(ag::slice(qkv, 2, 2 * dim_, dim_));

  Var scores = ag::scale(ag::bmm(q, k, false, true), scale);  // [B*H, L, L]
  Var probs = ag::softmax_lastdim(scores, key_mask);
  Var ctx = ag::bmm(probs, v);  // [B*H, L, Dh]

  Var merged = ag::reshape(ctx, {b, heads_, l, head_dim_});
  merged = ag::permute(merged, {0, 2, 1, 3});  // [B, L, H, Dh]
  merged = ag::reshape(merged, {b, l, dim_});
  return proj_.forward(merged);
}

TransformerEncoderLayer::TransformerEncoderLayer(std::int64_t dim,
                                                 std::int64_t heads,
                                                 std::int64_t mlp_hidden,
                                                 Rng& rng, float dropout)
    : ln1_(dim), ln2_(dim), attn_(dim, heads, rng), mlp_(dim, mlp_hidden, rng),
      dropout_(dropout) {
  add_child("ln1", ln1_);
  add_child("ln2", ln2_);
  add_child("attn", attn_);
  add_child("mlp", mlp_);
}

Var TransformerEncoderLayer::forward(const Var& x, const Tensor* key_mask,
                                     Rng& rng) const {
  // The mask flows into the dense sub-layers too; they ignore it while
  // grad is enabled and skip padded suffix rows on the serving path.
  Var a = attn_.forward(ln1_.forward(x, key_mask), key_mask);
  a = ag::dropout(a, dropout_, rng, training());
  Var h = ag::add(x, a);
  Var m = mlp_.forward(ln2_.forward(h, key_mask), key_mask);
  m = ag::dropout(m, dropout_, rng, training());
  return ag::add(h, m);
}

TransformerEncoder::TransformerEncoder(std::int64_t dim, std::int64_t depth,
                                       std::int64_t heads,
                                       std::int64_t mlp_hidden, Rng& rng,
                                       float dropout)
    : final_ln_(dim) {
  for (std::int64_t i = 0; i < depth; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(
        dim, heads, mlp_hidden, rng, dropout));
    add_child("layer" + std::to_string(i), *layers_.back());
  }
  add_child("final_ln", final_ln_);
}

Var TransformerEncoder::forward(const Var& x, const Tensor* key_mask,
                                Rng& rng) const {
  Var h = x;
  for (const auto& layer : layers_) h = layer->forward(h, key_mask, rng);
  return final_ln_.forward(h, key_mask);
}

Var TransformerEncoder::forward_collect(const Var& x, const Tensor* key_mask,
                                        Rng& rng,
                                        const std::vector<int>& tap_layers,
                                        std::vector<Var>& hidden) const {
  hidden.clear();
  Var h = x;
  int layer_no = 0;
  for (const auto& layer : layers_) {
    h = layer->forward(h, key_mask, rng);
    ++layer_no;
    for (int tap : tap_layers)
      if (tap == layer_no) hidden.push_back(h);
  }
  return final_ln_.forward(h, key_mask);
}

}  // namespace apf::nn
