// NN layer tests: shapes, gradients via gradcheck, module registration,
// Conv2d's banded forward against a scalar loop, attention behaviour under
// masks, batch-norm statistics, and optimizer convergence on analytic
// problems.

#include <gtest/gtest.h>

#include <cmath>

#include "core/thread_pool.h"
#include "gradcheck.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "tensor/gemm_backend.h"
#include "tensor/ops.h"

namespace apf::nn {
namespace {

TEST(Module, ParameterCollection) {
  Rng rng(1);
  Mlp mlp(8, 16, rng);
  auto params = mlp.parameters();
  EXPECT_EQ(params.size(), 4u);  // 2 weights + 2 biases
  EXPECT_EQ(mlp.num_parameters(), 8 * 16 + 16 + 16 * 8 + 8);
  auto named = mlp.named_parameters();
  EXPECT_EQ(named[0].first, "fc1.weight");
  EXPECT_EQ(named[3].first, "fc2.bias");
}

TEST(Module, TrainingModePropagates) {
  Rng rng(1);
  Mlp mlp(4, 8, rng);
  EXPECT_TRUE(mlp.training());
  mlp.set_training(false);
  EXPECT_FALSE(mlp.training());
}

TEST(Linear, ForwardShape2dAnd3d) {
  Rng rng(2);
  Linear lin(6, 4, rng);
  Var x2 = Var::constant(Tensor::zeros({5, 6}));
  EXPECT_EQ(lin.forward(x2).shape(), (Shape{5, 4}));
  Var x3 = Var::constant(Tensor::zeros({2, 3, 6}));
  EXPECT_EQ(lin.forward(x3).shape(), (Shape{2, 3, 4}));
}

TEST(Linear, GradCheck) {
  Rng rng(3);
  Linear lin(3, 2, rng);
  Var x = Var::param(Tensor::randn({4, 3}, rng));
  auto params = lin.parameters();
  params.push_back(x);
  test::expect_gradients_close(
      [&] {
        Var y = lin.forward(x);
        return ag::mean(ag::mul(y, y));
      },
      params);
}

TEST(Linear, NoBiasOption) {
  Rng rng(4);
  Linear lin(3, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
}

TEST(LayerNormLayer, NormalizesRows) {
  Rng rng(5);
  LayerNorm ln(8);
  Var x = Var::constant(Tensor::randn({4, 8}, rng, 3.f, 5.f));
  Var y = ln.forward(x);
  for (std::int64_t r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (std::int64_t j = 0; j < 8; ++j) mean += y.val().at({r, j});
    mean /= 8;
    for (std::int64_t j = 0; j < 8; ++j) {
      const double d = y.val().at({r, j}) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(EmbeddingLayer, LookupAndGrad) {
  Rng rng(6);
  Embedding emb(5, 3, rng);
  Var out = emb.forward({1, 3, 1});
  ASSERT_EQ(out.shape(), (Shape{3, 3}));
  // Rows 0 and 2 are the same table row.
  for (std::int64_t j = 0; j < 3; ++j)
    EXPECT_EQ(out.val().at({0, j}), out.val().at({2, j}));
  // Gradient accumulates twice into row 1.
  ag::sum(out).backward();
  Var w = emb.parameters()[0];
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(w.grad().at({1, j}), 2.f);
    EXPECT_FLOAT_EQ(w.grad().at({3, j}), 1.f);
    EXPECT_FLOAT_EQ(w.grad().at({0, j}), 0.f);
  }
}

TEST(EmbeddingLayer, OutOfRangeThrows) {
  Rng rng(7);
  Embedding emb(5, 3, rng);
  EXPECT_THROW(emb.forward({5}), detail::CheckError);
}

// -------------------------------------------------------------- attention

TEST(Attention, OutputShape) {
  Rng rng(8);
  MultiHeadAttention mha(16, 4, rng);
  Var x = Var::constant(Tensor::randn({2, 6, 16}, rng));
  EXPECT_EQ(mha.forward(x).shape(), (Shape{2, 6, 16}));
}

TEST(Attention, DimNotDivisibleThrows) {
  Rng rng(9);
  EXPECT_THROW(MultiHeadAttention(10, 3, rng), detail::CheckError);
}

TEST(Attention, MaskedKeysDoNotInfluenceValidQueries) {
  // Changing a masked token's content must not change valid tokens' output.
  Rng rng(10);
  MultiHeadAttention mha(8, 2, rng);
  Tensor xt = Tensor::randn({1, 4, 8}, rng);
  Tensor mask = Tensor::from({1, 1, 1, 0}, {1, 4});
  Var y1 = mha.forward(Var::constant(xt), &mask);
  Tensor xt2 = xt.clone();
  for (std::int64_t j = 0; j < 8; ++j) xt2.at({0, 3, j}) += 5.f;
  Var y2 = mha.forward(Var::constant(xt2), &mask);
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t j = 0; j < 8; ++j)
      EXPECT_NEAR(y1.val().at({0, t, j}), y2.val().at({0, t, j}), 1e-5);
}

TEST(Attention, GradCheckSmall) {
  Rng rng(11);
  MultiHeadAttention mha(4, 2, rng);
  Var x = Var::param(Tensor::randn({1, 3, 4}, rng, 0.f, 0.5f));
  auto params = mha.parameters();
  params.push_back(x);
  test::expect_gradients_close(
      [&] {
        Var y = mha.forward(x);
        return ag::mean(ag::mul(y, y));
      },
      params, 5e-3f, 8e-2f, 5e-3f);
}

TEST(TransformerEncoderLayer, ResidualPreservesShape) {
  Rng rng(12);
  TransformerEncoderLayer layer(8, 2, 16, rng);
  Rng drop_rng(1);
  Var x = Var::constant(Tensor::randn({2, 5, 8}, rng));
  EXPECT_EQ(layer.forward(x, nullptr, drop_rng).shape(), (Shape{2, 5, 8}));
}

TEST(TransformerEncoder, CollectTapsHiddenStates) {
  Rng rng(13);
  TransformerEncoder enc(8, 3, 2, 16, rng);
  Rng drop_rng(1);
  Var x = Var::constant(Tensor::randn({1, 4, 8}, rng));
  std::vector<Var> hidden;
  Var out = enc.forward_collect(x, nullptr, drop_rng, {1, 2}, hidden);
  EXPECT_EQ(hidden.size(), 2u);
  EXPECT_EQ(hidden[0].shape(), (Shape{1, 4, 8}));
  EXPECT_EQ(out.shape(), (Shape{1, 4, 8}));
}

// ------------------------------------------------------------------- conv

TEST(Conv2d, ShapeAndKnownValue) {
  Rng rng(14);
  Conv2d conv(1, 1, 3, 1, 1, rng, /*bias=*/false);
  // Set the kernel to a centre-tap identity.
  Var w = conv.parameters()[0];
  w.val_mut().fill(0.f);
  w.val_mut().at({0, 4}) = 1.f;
  Var x = Var::constant(Tensor::arange(16).reshape({1, 1, 4, 4}));
  Var y = conv.forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(y.val()[i], x.val()[i]);
}

TEST(Conv2d, StrideReducesResolution) {
  Rng rng(15);
  Conv2d conv(2, 3, 3, 2, 1, rng);
  Var x = Var::constant(Tensor::zeros({2, 2, 8, 8}));
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 3, 4, 4}));
}

TEST(Conv2d, GradCheck) {
  Rng rng(16);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  Var x = Var::param(Tensor::randn({1, 2, 4, 4}, rng, 0.f, 0.5f));
  auto params = conv.parameters();
  params.push_back(x);
  test::expect_gradients_close(
      [&] {
        Var y = conv.forward(x);
        return ag::mean(ag::mul(y, y));
      },
      params);
}

// Scalar per-element Conv2d: each output starts at 0 and adds w * x over
// (channel, ki, kj) in order, one separate multiply and add per step
// (volatile keeps the pair from contracting into an FMA), with padding
// read as 0; the bias is added last. That is the accumulation every
// bitwise-exact gemm backend performs for any column split, so the banded
// forward must reproduce it bit for bit. |w * x| summed into mag bounds
// the rounding of the tolerance-grade backends.
Tensor conv2d_scalar(const Tensor& x, const Tensor& wt, const Tensor* bias,
                     std::int64_t k, std::int64_t stride, std::int64_t pad,
                     Tensor* mag) {
  const std::int64_t b = x.size(0), c = x.size(1), h = x.size(2),
                     w = x.size(3), out_c = wt.size(0);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor y({b, out_c, oh, ow});
  *mag = Tensor({b, out_c, oh, ow});
  for (std::int64_t i = 0; i < b; ++i)
    for (std::int64_t o = 0; o < out_c; ++o)
      for (std::int64_t oi = 0; oi < oh; ++oi)
        for (std::int64_t oj = 0; oj < ow; ++oj) {
          float acc = 0.f;
          double m = 0.0;
          for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t ki = 0; ki < k; ++ki)
              for (std::int64_t kj = 0; kj < k; ++kj) {
                const std::int64_t ii = oi * stride + ki - pad;
                const std::int64_t jj = oj * stride + kj - pad;
                const bool inside = ii >= 0 && ii < h && jj >= 0 && jj < w;
                const float xv = inside ? x.at({i, ch, ii, jj}) : 0.f;
                volatile float prod = wt.at({o, (ch * k + ki) * k + kj}) * xv;
                acc += prod;
                m += std::fabs(static_cast<double>(prod));
              }
          if (bias != nullptr) acc += (*bias)[o];
          y.at({i, o, oi, oj}) = acc;
          mag->at({i, o, oi, oj}) = static_cast<float>(m);
        }
  return y;
}

TEST(Conv2d, ForwardMatchesScalarLoopAcrossBandsAndThreads) {
  struct Case {
    std::int64_t in_c, out_c, k, stride, pad, h, w;
    bool bias;
  };
  // Every shape crosses at least one split the banded forward makes: a
  // ragged last band (OH % conv_band_rows != 0, checked below), OW % 8
  // != 0 (the avx2 scalar column tail), C*K*K > kGemmBlockK (two gemm
  // k-blocks), bands wider than kGemmBlockN, stride 2, pad 0 and 1, and
  // the copy-free 1x1 path next to the 1x1 im2col paths.
  const Case cases[] = {
      {8, 8, 3, 1, 1, 67, 67, true},    // decoder 3x3; 871-column bands
      {40, 3, 3, 1, 1, 21, 29, true},   // C*K*K = 360: k-block edge
      {12, 4, 3, 2, 1, 150, 90, true},  // stride 2, pad 1
      {6, 5, 3, 2, 0, 101, 77, false},  // stride 2, pad 0, no bias
      {8, 3, 1, 1, 0, 300, 37, true},   // 1x1 identity: x read in place
      {4, 3, 1, 2, 0, 41, 23, true},    // 1x1 stride 2
      {3, 2, 1, 1, 1, 9, 10, true},     // 1x1 pad 1
  };
  struct RestoreThreads {
    ~RestoreThreads() { set_num_threads(0); }
  } restore;
  const bool exact = active_gemm_backend().bitwise_exact();
  Rng rng(20);
  for (const Case& cs : cases) {
    Conv2d conv(cs.in_c, cs.out_c, cs.k, cs.stride, cs.pad, rng, cs.bias);
    if (cs.bias)
      conv.parameters()[1].val_mut().copy_from(
          Tensor::randn({cs.out_c}, rng));
    const Tensor x = Tensor::randn({3, cs.in_c, cs.h, cs.w}, rng);
    const std::int64_t oh = (cs.h + 2 * cs.pad - cs.k) / cs.stride + 1;
    const std::int64_t ow = (cs.w + 2 * cs.pad - cs.k) / cs.stride + 1;
    const std::int64_t ckk = cs.in_c * cs.k * cs.k;
    const std::int64_t band = conv_band_rows(ckk, ow);
    if (oh > band) {  // every multi-band shape ends on a partial band
      ASSERT_NE(oh % band, 0) << "in_c=" << cs.in_c << " h=" << cs.h;
    }
    Tensor mag;
    const Tensor want = conv2d_scalar(
        x, conv.parameters()[0].val(),
        cs.bias ? &conv.parameters()[1].val() : nullptr, cs.k, cs.stride,
        cs.pad, &mag);
    for (const int threads : {1, 2, 7}) {
      set_num_threads(threads);
      NoGradGuard ng;
      const Tensor got = conv.forward(Var::constant(x)).val();
      ASSERT_EQ(got.shape(), want.shape());
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        if (exact) {
          ASSERT_EQ(got[i], want[i])
              << "in_c=" << cs.in_c << " k=" << cs.k << " stride="
              << cs.stride << " pad=" << cs.pad << " threads=" << threads
              << " at " << i;
        } else {
          ASSERT_NEAR(got[i], want[i], 1e-4f * (1.f + mag[i]))
              << "in_c=" << cs.in_c << " threads=" << threads << " at " << i;
        }
      }
    }
  }
}

TEST(ConvTranspose2d, UpsamplesShape) {
  Rng rng(17);
  ConvTranspose2d up(4, 2, 2, 2, rng);
  Var x = Var::constant(Tensor::zeros({1, 4, 3, 3}));
  EXPECT_EQ(up.forward(x).shape(), (Shape{1, 2, 6, 6}));
}

TEST(ConvTranspose2d, GradCheck) {
  Rng rng(18);
  ConvTranspose2d up(2, 2, 2, 2, rng);
  Var x = Var::param(Tensor::randn({1, 2, 3, 3}, rng, 0.f, 0.5f));
  auto params = up.parameters();
  params.push_back(x);
  test::expect_gradients_close(
      [&] {
        Var y = up.forward(x);
        return ag::mean(ag::mul(y, y));
      },
      params);
}

TEST(ConvTranspose2d, AdjointOfConv) {
  // convT with the same kernel is the adjoint of conv (stride 2, no pad):
  // <conv(x), y> == <x, convT(y)>.
  Rng rng(19);
  Conv2d conv(1, 1, 2, 2, 0, rng, false);
  ConvTranspose2d convt(1, 1, 2, 2, rng, false);
  // Copy conv's kernel [1, 1*2*2] into convT's [1, 1*2*2] (same layout).
  convt.parameters()[0].val_mut().copy_from(conv.parameters()[0].val());
  Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor y = Tensor::randn({1, 1, 2, 2}, rng);
  NoGradGuard ng;
  Var cx = conv.forward(Var::constant(x));
  Var cty = convt.forward(Var::constant(y));
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < 4; ++i) lhs += cx.val()[i] * y[i];
  for (std::int64_t i = 0; i < 16; ++i) rhs += x[i] * cty.val()[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

TEST(MaxPool2d, ForwardAndGrad) {
  MaxPool2d pool;
  Var x = Var::param(
      Tensor::from({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
                   {1, 1, 4, 4}));
  Var y = pool.forward(x);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.val()[0], 6.f);
  EXPECT_FLOAT_EQ(y.val()[3], 16.f);
  ag::sum(y).backward();
  EXPECT_FLOAT_EQ(x.grad().at({0, 0, 1, 1}), 1.f);  // argmax positions
  EXPECT_FLOAT_EQ(x.grad().at({0, 0, 0, 0}), 0.f);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  Rng rng(20);
  BatchNorm2d bn(2);
  Var x = Var::constant(Tensor::randn({4, 2, 6, 6}, rng, 2.f, 3.f));
  Var y = bn.forward(x);
  // Per-channel mean ~0 and var ~1 after normalization.
  for (std::int64_t ch = 0; ch < 2; ++ch) {
    double mean = 0, var = 0;
    std::int64_t n = 0;
    for (std::int64_t b = 0; b < 4; ++b)
      for (std::int64_t i = 0; i < 36; ++i) {
        mean += y.val()[(b * 2 + ch) * 36 + i];
        ++n;
      }
    mean /= n;
    for (std::int64_t b = 0; b < 4; ++b)
      for (std::int64_t i = 0; i < 36; ++i) {
        const double d = y.val()[(b * 2 + ch) * 36 + i] - mean;
        var += d * d;
      }
    var /= n;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Rng rng(21);
  BatchNorm2d bn(1);
  // Train on shifted data to move running stats.
  for (int i = 0; i < 20; ++i) {
    Var x = Var::constant(Tensor::randn({2, 1, 4, 4}, rng, 5.f, 2.f));
    bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.f, 0.8f);
  bn.set_training(false);
  Var x = Var::constant(Tensor::full({1, 1, 2, 2}, 5.f));
  Var y = bn.forward(x);
  // Input at the running mean normalizes to ~0.
  EXPECT_NEAR(y.val()[0], 0.f, 0.3f);
}

TEST(BatchNorm2d, GradCheckTrainMode) {
  Rng rng(22);
  BatchNorm2d bn(2);
  Var x = Var::param(Tensor::randn({2, 2, 3, 3}, rng));
  auto params = bn.parameters();
  params.push_back(x);
  Rng wrng(23);
  Tensor w = Tensor::randn({2, 2, 3, 3}, wrng);
  test::expect_gradients_close(
      [&] { return ag::sum(ag::mul_mask(bn.forward(x), w)); }, params, 5e-3f,
      8e-2f, 6e-3f);
}

// -------------------------------------------------------------- optimizers

TEST(Sgd, ConvergesOnQuadratic) {
  // min ||w - target||^2.
  Var w = Var::param(Tensor::zeros({4}));
  Tensor target = Tensor::from({1, -2, 3, 0.5f}, {4});
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    Var diff = ag::sub(w, Var::constant(target));
    ag::sum(ag::mul(diff, diff)).backward();
    opt.step();
  }
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_NEAR(w.val()[i], target[i], 1e-3);
}

TEST(AdamW, ConvergesOnLinearRegression) {
  // y = X w*; recover w* from 32 samples.
  Rng rng(24);
  Tensor X = Tensor::randn({32, 3}, rng);
  Tensor wstar = Tensor::from({0.5f, -1.f, 2.f}, {3, 1});
  Tensor y = ops::matmul(X, wstar);
  Var w = Var::param(Tensor::zeros({3, 1}));
  AdamW opt({w}, 0.05f, 0.9f, 0.999f, 1e-8f, 0.f);
  for (int i = 0; i < 400; ++i) {
    opt.zero_grad();
    Var pred = ag::matmul(Var::constant(X), w);
    Var diff = ag::sub(pred, Var::constant(y));
    ag::mean(ag::mul(diff, diff)).backward();
    opt.step();
  }
  for (std::int64_t i = 0; i < 3; ++i)
    EXPECT_NEAR(w.val()[i], wstar[i], 2e-2);
}

TEST(AdamW, DecoupledDecayShrinksWeights) {
  Var w = Var::param(Tensor::full({4}, 10.f));
  AdamW opt({w}, 0.01f, 0.9f, 0.999f, 1e-8f, 0.5f);
  for (int i = 0; i < 50; ++i) {
    opt.zero_grad();
    w.grad().fill(0.f);  // zero task gradient: only decay acts
    opt.step();
  }
  EXPECT_LT(std::fabs(w.val()[0]), 10.f * std::pow(1.f - 0.01f * 0.5f, 45));
}

TEST(ClipGradNorm, ScalesDownOnlyWhenAboveThreshold) {
  Var a = Var::param(Tensor::from({3.f, 4.f}, {2}));  // grad norm 5 after seed
  ag::sum(ag::mul(a, a)).backward();  // grad = 2a = (6, 8), norm 10
  const float pre = clip_grad_norm({a}, 5.f);
  EXPECT_FLOAT_EQ(pre, 10.f);
  EXPECT_NEAR(a.grad()[0], 3.f, 1e-5);
  EXPECT_NEAR(a.grad()[1], 4.f, 1e-5);
  // Below threshold: untouched.
  const float pre2 = clip_grad_norm({a}, 50.f);
  EXPECT_NEAR(pre2, 5.f, 1e-4);
  EXPECT_NEAR(a.grad()[0], 3.f, 1e-5);
}

TEST(ClipGradNorm, RejectsNonPositiveThreshold) {
  Var a = Var::param(Tensor::ones({2}));
  a.grad();
  EXPECT_THROW(clip_grad_norm({a}, 0.f), detail::CheckError);
}

TEST(StepLrSchedule, DecaysAtMilestones) {
  Var w = Var::param(Tensor::zeros({1}));
  Sgd opt({w}, 1.f);
  StepLr sched(opt, {10, 20}, 0.1f);
  sched.on_epoch(5);
  EXPECT_FLOAT_EQ(opt.lr(), 1.f);
  sched.on_epoch(10);
  EXPECT_FLOAT_EQ(opt.lr(), 0.1f);
  sched.on_epoch(25);
  EXPECT_NEAR(opt.lr(), 0.01f, 1e-6);
}

TEST(CosineLrSchedule, Endpoints) {
  Var w = Var::param(Tensor::zeros({1}));
  Sgd opt({w}, 1.f);
  CosineLr sched(opt, 100, 0.f);
  sched.on_epoch(0);
  EXPECT_NEAR(opt.lr(), 1.f, 1e-5);
  sched.on_epoch(100);
  EXPECT_NEAR(opt.lr(), 0.f, 1e-5);
  sched.on_epoch(50);
  EXPECT_NEAR(opt.lr(), 0.5f, 1e-5);
}

}  // namespace
}  // namespace apf::nn
