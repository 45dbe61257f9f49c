// Inference fast-path tests: GradMode semantics, the fused masked
// attention kernel against the composed bmm/scale/softmax/bmm reference
// (bitwise), grad-on vs grad-off forwards (bitwise at the model output),
// and the serve::InferenceEngine end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/apf_config.h"
#include "models/patcher.h"
#include "data/synthetic.h"
#include "models/unetr.h"
#include "nn/attention.h"
#include "serve/engine.h"
#include "core/check.h"
#include "tensor/gemm_backend.h"
#include "tensor/ops.h"

namespace apf {
namespace {

// The taped pipeline's value computation, composed from forward kernels.
Tensor ref_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                     float scale, const Tensor* mask) {
  Tensor scores = ops::mul_scalar(ops::bmm(q, k, false, true), scale);
  Tensor probs = ops::softmax_lastdim(scores, mask);
  return ops::bmm(probs, v);
}

TEST(FusedAttention, UnmaskedBitwiseMatchesComposed) {
  Rng rng(7);
  const std::int64_t b = 2, h = 3, l = 70, dh = 8;  // ragged row panel
  Tensor q = Tensor::randn({b * h, l, dh}, rng);
  Tensor k = Tensor::randn({b * h, l, dh}, rng);
  Tensor v = Tensor::randn({b * h, l, dh}, rng);
  const float scale = 1.f / std::sqrt(static_cast<float>(dh));
  Tensor want = ref_attention(q, k, v, scale, nullptr);
  Tensor got = nn::fused_masked_attention(q, k, v, scale, nullptr, b);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_EQ(got[i], want[i]) << "fused attention at " << i;
}

TEST(FusedAttention, MaskedBitwiseMatchesComposedOnValidRows) {
  Rng rng(9);
  const std::int64_t b = 2, h = 2, l = 100, dh = 8;
  Tensor q = Tensor::randn({b * h, l, dh}, rng);
  Tensor k = Tensor::randn({b * h, l, dh}, rng);
  Tensor v = Tensor::randn({b * h, l, dh}, rng);
  // Item 0 is padded past token valid0 (fit_to_length-style suffix
  // padding); item 1 is fully valid. The fused kernel's softmax stops at
  // valid0, the composed one runs the padded row: the lengths sit on and
  // one past the 4-lane blocks and the 64-row gemm panel.
  for (const std::int64_t valid0 : {1, 8, 9, 37, 64, 65}) {
    SCOPED_TRACE("valid0=" + std::to_string(valid0));
    Tensor mask = Tensor::zeros({b, l});
    for (std::int64_t j = 0; j < valid0; ++j) mask.at({0, j}) = 1.f;
    for (std::int64_t j = 0; j < l; ++j) mask.at({1, j}) = 1.f;
    const float scale = 0.25f;
    Tensor want = ref_attention(q, k, v, scale, &mask);
    Tensor got = nn::fused_masked_attention(q, k, v, scale, &mask, b);
    for (std::int64_t bi = 0; bi < b * h; ++bi) {
      const std::int64_t nv = (bi / h == 0) ? valid0 : l;
      for (std::int64_t i = 0; i < l; ++i) {
        for (std::int64_t d = 0; d < dh; ++d) {
          const float gv = got.at({bi, i, d});
          if (i < nv) {
            // Valid query rows: bitwise identical to the taped values.
            ASSERT_EQ(gv, want.at({bi, i, d}))
                << "masked fused at " << (bi * l + i) * dh + d;
          } else {
            // Padded query rows are unspecified in the reference; the
            // fused kernel defines them as zero.
            ASSERT_EQ(gv, 0.f) << "bi=" << bi << " i=" << i << " d=" << d;
          }
        }
      }
    }
  }
}

TEST(FusedAttention, FullyMaskedItemIsZeroNotNaN) {
  Rng rng(13);
  const std::int64_t b = 2, h = 1, l = 6, dh = 4;
  Tensor q = Tensor::randn({b * h, l, dh}, rng);
  Tensor k = Tensor::randn({b * h, l, dh}, rng);
  Tensor v = Tensor::randn({b * h, l, dh}, rng);
  Tensor mask = Tensor::zeros({b, l});  // item 0 fully masked
  for (std::int64_t j = 0; j < l; ++j) mask.at({1, j}) = 1.f;
  Tensor got = nn::fused_masked_attention(q, k, v, 1.f, &mask, b);
  for (std::int64_t i = 0; i < l * dh; ++i) {
    EXPECT_EQ(got[i], 0.f);                    // item 0: all zeros
    EXPECT_TRUE(std::isfinite(got[l * dh + i]));  // item 1: finite values
  }
}

TEST(MultiHeadAttention, NoGradForwardBitwiseMatchesTaped_Unmasked) {
  Rng rng(17);
  nn::MultiHeadAttention mha(32, 4, rng);
  mha.set_training(false);
  Tensor x = Tensor::randn({2, 70, 32}, rng);
  Var taped = mha.forward(Var::constant(x));
  Tensor fused;
  {
    NoGradGuard ng;
    fused = mha.forward(Var::constant(x)).val();
  }
  ASSERT_EQ(taped.shape(), fused.shape());
  for (std::int64_t i = 0; i < fused.numel(); ++i)
    ASSERT_EQ(taped.val()[i], fused[i]) << "mha at " << i;
}

// End-to-end bitwise equality at the model output under a padded mask:
// the fused kernel zeroes padded rows — and the mask-aware dense layers
// skip them — where the taped path computes garbage, but padding never
// leaks into the pixel logits. The grad-free decoder applies each eval
// batch norm and ReLU inside its conv's band loop; the second case gives
// every batch norm random gamma/beta and running statistics moved by two
// training-mode forwards, so an epilogue that is only algebraically
// equivalent (e.g. batch norm folded to one multiply-add) fails here.
TEST(Unetr2d, NoGradForwardBitwiseMatchesTaped_MaskedBatch) {
  const std::int64_t z = 64, patch = 4;
  models::UnetrConfig mcfg;
  mcfg.enc.token_dim = 3 * patch * patch;
  mcfg.enc.d_model = 32;
  mcfg.enc.depth = 2;
  mcfg.enc.heads = 4;
  mcfg.image_size = z;
  mcfg.grid = 8;
  mcfg.base_channels = 8;
  Rng mrng(1);
  models::Unetr2d model(mcfg, mrng);
  model.set_training(false);

  data::PaipConfig pc;
  pc.resolution = z;
  data::SyntheticPaip gen(pc);
  core::ApfConfig acfg;
  acfg.patch_size = patch;
  acfg.min_patch = patch;
  acfg.max_depth = 6;
  acfg.seq_len = 96;  // forces suffix padding (mask has zero tail)
  core::PatchSequence seq =
      core::AdaptivePatcher(acfg).process(gen.sample(0).image);
  ASSERT_LT(seq.num_valid(), seq.length()) << "workload must be padded";
  core::TokenBatch batch = core::make_batch({seq});

  const auto expect_taped_equals_fused = [&](const char* what) {
    Rng fwd_rng(0);
    Var taped = model.forward(batch, fwd_rng);
    Tensor fused;
    {
      NoGradGuard ng;
      fused = model.forward(batch, fwd_rng).val();
    }
    ASSERT_EQ(taped.shape(), fused.shape());
    for (std::int64_t i = 0; i < fused.numel(); ++i)
      ASSERT_EQ(taped.val()[i], fused[i]) << what << " at " << i;
  };
  expect_taped_equals_fused("unetr, init batch norm");

  Rng bn_rng(3);
  for (auto& [name, p] : model.named_parameters()) {
    const bool gamma = name.ends_with(".gamma");
    if (!gamma && !name.ends_with(".beta")) continue;
    Tensor& t = p.val_mut();
    for (std::int64_t i = 0; i < t.numel(); ++i)
      t[i] = gamma ? bn_rng.normal(1.f, 0.5f) : bn_rng.normal(0.f, 0.3f);
  }
  model.set_training(true);
  for (int rep = 0; rep < 2; ++rep) {
    Rng train_rng(rep);
    model.forward(batch, train_rng);
  }
  model.set_training(false);
  expect_taped_equals_fused("unetr, non-trivial batch norm");
}

TEST(InferenceEngine, ShapesDeterminismAndTapedEquivalence) {
  const std::int64_t z = 32, patch = 4;
  models::UnetrConfig mcfg;
  mcfg.enc.token_dim = 3 * patch * patch;
  mcfg.enc.d_model = 32;
  mcfg.enc.depth = 1;
  mcfg.enc.heads = 4;
  mcfg.image_size = z;
  mcfg.grid = 8;
  mcfg.base_channels = 8;
  Rng mrng(2);
  models::Unetr2d model(mcfg, mrng);

  serve::EngineConfig ecfg;
  ecfg.patcher.patch_size = patch;
  ecfg.patcher.min_patch = patch;
  ecfg.patcher.max_depth = 5;
  ecfg.patcher.seq_len = 40;
  ecfg.max_batch = 2;  // exercises chunking with 3 images
  serve::InferenceEngine engine(model, ecfg);

  data::PaipConfig pc;
  pc.resolution = z;
  data::SyntheticPaip gen(pc);
  std::vector<img::Image> images;
  for (std::int64_t i = 0; i < 3; ++i) images.push_back(gen.sample(i).image);

  model.set_training(true);  // engine must force eval and then restore
  serve::InferenceResult res = engine.run(images);
  EXPECT_TRUE(model.training());
  ASSERT_EQ(res.logits.shape(), (Shape{3, 1, z, z}));
  ASSERT_EQ(res.masks.size(), 3u);
  EXPECT_EQ(res.stats.images, 3);
  EXPECT_GT(res.stats.tokens, 0);
  for (const img::Image& m : res.masks) {
    ASSERT_EQ(m.h, z);
    ASSERT_EQ(m.w, z);
    for (float p : m.data) EXPECT_TRUE(p == 0.f || p == 1.f);
  }

  // Deterministic: a second run is bitwise identical.
  serve::InferenceResult res2 = engine.run(images);
  for (std::int64_t i = 0; i < res.logits.numel(); ++i)
    ASSERT_EQ(res.logits[i], res2.logits[i]) << "at " << i;

  // Stats carry the active compute backend and the delivered encoder
  // FLOPs (valid tokens only).
  EXPECT_EQ(res.stats.gemm_backend, active_gemm_backend().name());
  EXPECT_GT(res.stats.model_flops, 0.0);
  EXPECT_GT(res.stats.model_gflops_per_sec(), 0.0);

  // Equivalent to the taped eval-mode forward on the same token batch.
  model.set_training(false);
  std::vector<core::PatchSequence> seqs;
  for (const img::Image& im : images)
    seqs.push_back(core::AdaptivePatcher(ecfg.patcher).process(im));
  core::TokenBatch batch = core::make_batch(seqs);
  Rng fwd_rng(0);
  Var taped = model.forward(batch, fwd_rng);
  for (std::int64_t i = 0; i < res.logits.numel(); ++i)
    ASSERT_EQ(res.logits[i], taped.val()[i]) << "engine at " << i;
}

// Mask-aware dense layers: grad-free with a padded [B, L] mask, Linear /
// LayerNorm / Mlp skip rows past each item's valid length. Valid rows must
// be bitwise identical to the full (unmasked) computation; skipped rows
// must be exactly zero.
TEST(MaskAwareDense, LinearLayerNormMlpSkipPaddedRowsBitwise) {
  const std::int64_t b = 2, l = 50, d = 32;
  Rng rng(19);
  nn::Linear linear(d, 3 * d, rng);
  nn::LayerNorm ln(d);
  nn::Mlp mlp(d, 2 * d, rng);
  Tensor x = Tensor::randn({b, l, d}, rng);
  // Item 0 valid through token 13, item 1 through 50 (no padding).
  Tensor mask = Tensor::zeros({b, l});
  const std::int64_t valid0 = 13;
  for (std::int64_t j = 0; j < valid0; ++j) mask.at({0, j}) = 1.f;
  for (std::int64_t j = 0; j < l; ++j) mask.at({1, j}) = 1.f;
  const std::int64_t n_eff[2] = {valid0, l};

  NoGradGuard ng;
  struct Case {
    const char* name;
    Tensor full, masked;
  };
  const Case cases[] = {
      {"linear", linear.forward(Var::constant(x)).val(),
       linear.forward(Var::constant(x), &mask).val()},
      {"layernorm", ln.forward(Var::constant(x)).val(),
       ln.forward(Var::constant(x), &mask).val()},
      {"mlp", mlp.forward(Var::constant(x)).val(),
       mlp.forward(Var::constant(x), &mask).val()},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(c.full.shape(), c.masked.shape()) << c.name;
    const std::int64_t w = c.full.size(2);
    for (std::int64_t i = 0; i < b; ++i)
      for (std::int64_t r = 0; r < l; ++r)
        for (std::int64_t j = 0; j < w; ++j) {
          const float mv = c.masked.at({i, r, j});
          if (r < n_eff[i]) {
            // Bitwise: the per-item prefix gemms are row-stable (gemm.h).
            ASSERT_EQ(mv, c.full.at({i, r, j}))
                << c.name << " at " << (i * l + r) * w + j;
          } else {
            // Skipped rows are exactly zero under every backend.
            ASSERT_EQ(mv, 0.f)
                << c.name << " padded row " << i << "," << r << "," << j;
          }
        }
  }
}

// While gradients are enabled the mask must be ignored (training always
// computes every row and records the tape).
TEST(MaskAwareDense, MaskIgnoredWhileGradEnabled) {
  const std::int64_t b = 1, l = 10, d = 8;
  Rng rng(29);
  nn::Linear linear(d, d, rng);
  Tensor x = Tensor::randn({b, l, d}, rng);
  Tensor mask = Tensor::zeros({b, l});
  mask.at({0, 0}) = 1.f;  // 9 padded rows
  Var y_masked = linear.forward(Var::constant(x), &mask);
  Var y_full = linear.forward(Var::constant(x));
  for (std::int64_t i = 0; i < y_full.numel(); ++i)
    ASSERT_EQ(y_masked.val()[i], y_full.val()[i]) << "at " << i;
  EXPECT_STREQ(y_masked.node()->op_name, y_full.node()->op_name);
}

TEST(ValidPrefixLengths, LastValidTokenPlusOne) {
  Tensor mask = Tensor::zeros({3, 5});
  // Item 0: empty. Item 1: hole inside the prefix (attention masks it, the
  // dense layers still compute it). Item 2: fully valid.
  mask.at({1, 0}) = 1.f;
  mask.at({1, 3}) = 1.f;
  for (std::int64_t j = 0; j < 5; ++j) mask.at({2, j}) = 1.f;
  const std::vector<std::int64_t> got = nn::valid_prefix_lengths(mask);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 4);
  EXPECT_EQ(got[2], 5);
}

TEST(EngineConfig, ValidationRejectsBadValuesWithClearMessages) {
  models::UnetrConfig mcfg;
  mcfg.enc.token_dim = 3 * 4 * 4;
  mcfg.enc.d_model = 32;
  mcfg.enc.depth = 1;
  mcfg.enc.heads = 4;
  mcfg.image_size = 32;
  mcfg.grid = 8;
  mcfg.base_channels = 8;
  Rng mrng(5);
  models::Unetr2d model(mcfg, mrng);

  auto base = [] {
    serve::EngineConfig c;
    c.patcher.patch_size = 4;
    c.patcher.min_patch = 4;
    return c;
  };
  auto expect_rejected = [&](serve::EngineConfig c, const char* fragment) {
    try {
      serve::InferenceEngine engine(model, c);
      FAIL() << "expected CheckError mentioning \"" << fragment << "\"";
    } catch (const detail::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };

  serve::EngineConfig bad = base();
  bad.max_batch = 0;
  expect_rejected(bad, "max_batch");
  bad = base();
  bad.max_batch = -3;
  expect_rejected(bad, "max_batch");
  bad = base();
  bad.mask_threshold = -0.01f;
  expect_rejected(bad, "mask_threshold");
  bad = base();
  bad.mask_threshold = 1.5f;
  expect_rejected(bad, "mask_threshold");
  bad = base();
  bad.mask_threshold = std::nanf("");
  expect_rejected(bad, "mask_threshold");
  bad = base();
  bad.patcher.seq_len = -1;
  expect_rejected(bad, "seq_len");

  // Degenerate-but-legal thresholds and the seq_len = 0 (variable length)
  // default construct fine.
  serve::EngineConfig ok = base();
  ok.mask_threshold = 0.f;
  serve::InferenceEngine all_fg(model, ok);
  ok.mask_threshold = 1.f;
  serve::InferenceEngine all_bg(model, ok);
  EXPECT_EQ(all_fg.config().patcher.seq_len, 0);
  EXPECT_EQ(all_bg.config().mask_threshold, 1.f);
}

TEST(InferenceEngine, SingleImagePredictMask) {
  const std::int64_t z = 32, patch = 4;
  models::UnetrConfig mcfg;
  mcfg.enc.token_dim = 3 * patch * patch;
  mcfg.enc.d_model = 32;
  mcfg.enc.depth = 1;
  mcfg.enc.heads = 4;
  mcfg.image_size = z;
  mcfg.grid = 8;
  mcfg.base_channels = 8;
  Rng mrng(3);
  models::Unetr2d model(mcfg, mrng);
  serve::EngineConfig ecfg;
  ecfg.patcher.patch_size = patch;
  ecfg.patcher.min_patch = patch;
  ecfg.patcher.max_depth = 5;
  serve::InferenceEngine engine(model, ecfg);
  data::PaipConfig pc;
  pc.resolution = z;
  img::Image mask =
      engine.predict_mask(data::SyntheticPaip(pc).sample(0).image);
  EXPECT_EQ(mask.h, z);
  EXPECT_EQ(mask.w, z);
  EXPECT_EQ(mask.c, 1);
}

}  // namespace
}  // namespace apf
