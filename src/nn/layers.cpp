#include "nn/layers.h"

#include <numeric>

#include "nn/init.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "core/parallel_for.h"

namespace apf::nn {

std::vector<std::int64_t> valid_prefix_lengths(const Tensor& key_mask) {
  APF_CHECK(key_mask.ndim() == 2,
            "valid_prefix_lengths: mask must be [B, L], got "
                << key_mask.str());
  const std::int64_t b = key_mask.size(0), l = key_mask.size(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(b), 0);
  const float* pm = key_mask.data();
  for (std::int64_t i = 0; i < b; ++i) {
    const float* row = pm + i * l;
    std::int64_t last = 0;
    for (std::int64_t j = 0; j < l; ++j)
      if (row[j] != 0.f) last = j + 1;
    out[static_cast<std::size_t>(i)] = last;
  }
  return out;
}

namespace {

// The mask-aware row-skipping path applies only on the grad-free serving
// path, for [B, L, D] activations with a matching [B, L] mask.
bool mask_rows_applicable(const Shape& s, const Tensor* key_mask) {
  return key_mask != nullptr && !ag::grad_enabled() && s.size() == 3 &&
         key_mask->ndim() == 2 && key_mask->size(0) == s[0] &&
         key_mask->size(1) == s[1];
}

std::int64_t total_rows(const std::vector<std::int64_t>& n_eff) {
  return std::accumulate(n_eff.begin(), n_eff.end(), std::int64_t{0});
}

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_(in_features), out_(out_features) {
  weight_ = add_param("weight", trunc_normal({out_, in_}, rng, 0.02f));
  if (bias) bias_ = add_param("bias", Tensor::zeros({out_}));
}

std::shared_ptr<const Int8PackedWeights> Linear::int8_packed() const {
  MutexLock lock(int8_mu_);
  if (int8_cache_ == nullptr) {
    int8_cache_ = std::make_shared<const Int8PackedWeights>(
        int8_prepack_linear(weight_.val().data(), out_, in_));
  }
  return int8_cache_;
}

Var Linear::forward(const Var& x, const Tensor* key_mask) const {
  const Shape& s = x.shape();
  APF_CHECK(s.size() >= 2 && s.back() == in_,
            "Linear: input " << x.val().str() << " vs in_features " << in_);
  if (ag::grad_enabled()) {
    // The optimizer may step weight_ after this forward; drop any stale
    // quantized pack so the next int8 forward re-packs the new weights.
    MutexLock lock(int8_mu_);
    int8_cache_.reset();
  }
  if (mask_rows_applicable(s, key_mask)) {
    const std::int64_t b = s[0], l = s[1];
    const std::vector<std::int64_t> n_eff = valid_prefix_lengths(*key_mask);
    const bool use_int8 =
        active_precision() == Precision::kInt8 && int8_available();
    if (use_int8) {
      // Quantized route: per item, the valid prefix rows run through the
      // int8 kernel with the per-layer weight pack (bias fused into the
      // dequantizing epilogue); padded suffix rows stay zero. Unlike the
      // fp32 fast path below this fires even when every row is valid —
      // the whole point is to replace the dense-layer gemm. Per-row
      // quantization is row-local, so item results are independent of
      // batch composition, and int8_linear panel-parallelizes each item
      // on the shared pool just like gemm does.
      const std::shared_ptr<const Int8PackedWeights> pack = int8_packed();
      Tensor y({b, l, out_});  // zero-init: padded rows stay zero
      const float* px = x.val().data();
      const float* pb = bias_.defined() ? bias_.val().data() : nullptr;
      float* py = y.data();
      parallel_for(
          b,
          [&](std::int64_t i) {
            const std::int64_t rows = n_eff[static_cast<std::size_t>(i)];
            if (rows == 0) return;
            int8_linear(px + i * l * in_, rows, in_, *pack, pb,
                        py + i * l * out_, out_);
          },
          /*grain=*/num_threads());
      return Var::constant(std::move(y));
    }
    if (total_rows(n_eff) < b * l) {
      // One gemm per item over just its valid prefix; padded suffix rows
      // stay zero. Valid rows are bitwise identical to the full [B*L]
      // call by the gemm row-stability contract — which also makes the
      // items independent, so the loop composes with the scheduler both
      // ways: below num_threads() items the loop stays serial and each
      // gemm parallelizes over its row panels; at or above, the items
      // parallelize and any nested gemm panels are submitted to the same
      // shared pool, where idle workers steal them.
      Tensor y({b, l, out_});
      const float* px = x.val().data();
      const float* pw = weight_.val().data();
      float* py = y.data();
      parallel_for(
          b,
          [&](std::int64_t i) {
            const std::int64_t rows = n_eff[static_cast<std::size_t>(i)];
            if (rows == 0) return;
            gemm(false, true, rows, out_, in_, 1.f, px + i * l * in_, in_,
                 pw, in_, 0.f, py + i * l * out_, out_);
          },
          /*grain=*/num_threads());
      if (bias_.defined()) {
        const float* pb = bias_.val().data();
        parallel_for(b * l, [&](std::int64_t r) {
          if (r % l >= n_eff[static_cast<std::size_t>(r / l)]) return;
          float* row = py + r * out_;
          for (std::int64_t j = 0; j < out_; ++j) row[j] += pb[j];
        });
      }
      return Var::constant(std::move(y));
    }
  }
  Var flat = s.size() == 2 ? x : ag::reshape(x, {-1, in_});
  Var y = ag::matmul(flat, weight_, false, true);
  if (bias_.defined()) y = ag::add_bias(y, bias_);
  if (s.size() != 2) {
    Shape out_shape = s;
    out_shape.back() = out_;
    y = ag::reshape(y, out_shape);
  }
  return y;
}

LayerNorm::LayerNorm(std::int64_t dim, float eps) : eps_(eps) {
  gamma_ = add_param("gamma", Tensor::ones({dim}));
  beta_ = add_param("beta", Tensor::zeros({dim}));
}

Var LayerNorm::forward(const Var& x, const Tensor* key_mask) const {
  if (mask_rows_applicable(x.shape(), key_mask)) {
    const std::int64_t b = x.size(0), l = x.size(1), d = x.size(2);
    APF_CHECK(gamma_.val().numel() == d && beta_.val().numel() == d,
              "layernorm: affine params must be [" << d << "]");
    const std::vector<std::int64_t> n_eff = valid_prefix_lengths(*key_mask);
    if (total_rows(n_eff) < b * l) {
      Tensor y(x.shape());  // zero-init: padded rows stay zero
      const float* px = x.val().data();
      const float* pg = gamma_.val().data();
      const float* pb = beta_.val().data();
      float* py = y.data();
      parallel_for(b * l, [&](std::int64_t r) {
        if (r % l >= n_eff[static_cast<std::size_t>(r / l)]) return;
        ops::layernorm_row(px + r * d, pg, pb, eps_, d, py + r * d,
                           /*xhat=*/nullptr, /*inv_std=*/nullptr);
      });
      return Var::constant(std::move(y));
    }
  }
  return ag::layernorm(x, gamma_, beta_, eps_);
}

Embedding::Embedding(std::int64_t num_embeddings, std::int64_t dim, Rng& rng)
    : n_(num_embeddings), dim_(dim) {
  weight_ = add_param("weight", trunc_normal({n_, dim_}, rng, 0.02f));
}

Var Embedding::forward(const std::vector<std::int64_t>& indices) const {
  const std::int64_t l = static_cast<std::int64_t>(indices.size());
  Tensor out({l, dim_});
  const float* pw = weight_.val().data();
  float* po = out.data();
  for (std::int64_t i = 0; i < l; ++i) {
    const std::int64_t ix = indices[static_cast<std::size_t>(i)];
    APF_CHECK(ix >= 0 && ix < n_, "Embedding: index " << ix << " out of range");
    std::copy(pw + ix * dim_, pw + (ix + 1) * dim_, po + i * dim_);
  }
  auto wn = weight_.node();
  auto idx = indices;
  const std::int64_t dim = dim_;
  return ag::make_op(
      out, {weight_},
      [wn, idx, dim](ag::Node& node) {
        Tensor& g = wn->ensure_grad();
        float* pg = g.data();
        const float* pd = node.grad.data();
        // Serial scatter-add: deterministic and cheap (L is small).
        for (std::size_t i = 0; i < idx.size(); ++i) {
          float* row = pg + idx[i] * dim;
          const float* src = pd + static_cast<std::int64_t>(i) * dim;
          for (std::int64_t j = 0; j < dim; ++j) row[j] += src[j];
        }
      },
      "embedding");
}

Mlp::Mlp(std::int64_t dim, std::int64_t hidden, Rng& rng)
    : fc1_(dim, hidden, rng), fc2_(hidden, dim, rng) {
  add_child("fc1", fc1_);
  add_child("fc2", fc2_);
}

Var Mlp::forward(const Var& x, const Tensor* key_mask) const {
  if (mask_rows_applicable(x.shape(), key_mask)) {
    const std::int64_t b = x.size(0), l = x.size(1);
    const std::vector<std::int64_t> n_eff = valid_prefix_lengths(*key_mask);
    // Under int8 the mask path runs even with every row valid, so both
    // Linears route through the quantized kernel (the GELU between them
    // stays fp32 and skips nothing in that case).
    const bool use_int8 =
        active_precision() == Precision::kInt8 && int8_available();
    if (use_int8 || total_rows(n_eff) < b * l) {
      Var h = fc1_.forward(x, key_mask);
      // GELU on the valid prefix only (the row kernel ops::gelu runs, so
      // valid rows match the full elementwise pass bitwise).
      Tensor g(h.shape());
      const std::int64_t hd = h.size(2);
      const float* ph = h.val().data();
      float* pg = g.data();
      parallel_for(b * l, [&](std::int64_t r) {
        if (r % l >= n_eff[static_cast<std::size_t>(r / l)]) return;
        ops::gelu_row(ph + r * hd, hd, pg + r * hd);
      });
      return fc2_.forward(Var::constant(std::move(g)), key_mask);
    }
  }
  return fc2_.forward(ag::gelu(fc1_.forward(x)));
}

}  // namespace apf::nn
