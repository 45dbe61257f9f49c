// NN layer tests: shapes, gradients via gradcheck, module registration,
// the banded Conv2d and ConvTranspose2d forwards against scalar loops, the
// grad-free batch norm + ReLU epilogue against the taped ops (bitwise),
// attention behaviour under masks, batch-norm statistics, and optimizer
// convergence on analytic problems.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/thread_pool.h"
#include "gradcheck.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/optim.h"
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

TEST(Module, BuffersAreNamedAndShareStorage) {
  BatchNorm2d bn(3);
  ASSERT_EQ(bn.named_buffers("b1").size(), 2u);
  EXPECT_EQ(bn.named_buffers("b1")[0].first, "b1.running_mean");
  EXPECT_EQ(bn.named_buffers("b1")[1].first, "b1.running_var");
  EXPECT_EQ(bn.parameters().size(), 2u);  // gamma, beta: not the buffers
  Rng rng(4);
  bn.forward(Var::constant(Tensor::randn({2, 3, 4, 4}, rng, 2.f, 1.f)));
  const auto buffers = bn.named_buffers();
  EXPECT_TRUE(buffers[0].second.shares_storage(bn.running_mean()));
  EXPECT_NE(buffers[0].second[0], 0.f);  // moved by the training forward
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
// read as 0; the bias is added last. That is the accumulation every gemm
// backend performs for any column split, so the banded forward must
// reproduce it bit for bit.
Tensor conv2d_scalar(const Tensor& x, const Tensor& wt, const Tensor* bias,
                     std::int64_t k, std::int64_t stride, std::int64_t pad) {
  const std::int64_t b = x.size(0), c = x.size(1), h = x.size(2),
                     w = x.size(3), out_c = wt.size(0);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor y({b, out_c, oh, ow});
  for (std::int64_t i = 0; i < b; ++i)
    for (std::int64_t o = 0; o < out_c; ++o)
      for (std::int64_t oi = 0; oi < oh; ++oi)
        for (std::int64_t oj = 0; oj < ow; ++oj) {
          float acc = 0.f;
          for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t ki = 0; ki < k; ++ki)
              for (std::int64_t kj = 0; kj < k; ++kj) {
                const std::int64_t ii = oi * stride + ki - pad;
                const std::int64_t jj = oj * stride + kj - pad;
                const bool inside = ii >= 0 && ii < h && jj >= 0 && jj < w;
                const float xv = inside ? x.at({i, ch, ii, jj}) : 0.f;
                volatile float prod = wt.at({o, (ch * k + ki) * k + kj}) * xv;
                acc += prod;
              }
          if (bias != nullptr) acc += (*bias)[o];
          y.at({i, o, oi, oj}) = acc;
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
    const Tensor want = conv2d_scalar(
        x, conv.parameters()[0].val(),
        cs.bias ? &conv.parameters()[1].val() : nullptr, cs.k, cs.stride,
        cs.pad);
    for (const int threads : {1, 2, 7}) {
      set_num_threads(threads);
      NoGradGuard ng;
      const Tensor got = conv.forward(Var::constant(x)).val();
      ASSERT_EQ(got.shape(), want.shape());
      for (std::int64_t i = 0; i < want.numel(); ++i)
        ASSERT_EQ(got[i], want[i])
            << "in_c=" << cs.in_c << " k=" << cs.k << " stride="
            << cs.stride << " pad=" << cs.pad << " threads=" << threads
            << " at " << i;
    }
  }
}

TEST(ConvTranspose2d, UpsamplesShape) {
  Rng rng(17);
  ConvTranspose2d up(4, 2, rng);
  Var x = Var::constant(Tensor::zeros({1, 4, 3, 3}));
  EXPECT_EQ(up.forward(x).shape(), (Shape{1, 2, 6, 6}));
}

TEST(ConvTranspose2d, GradCheck) {
  Rng rng(18);
  ConvTranspose2d up(2, 2, rng);
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
  ConvTranspose2d convt(1, 1, rng, false);
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

TEST(ConvTranspose2d, ForwardMatchesScalarLoopAcrossBandsAndThreads) {
  // Each output pixel (2r + ki, 2c + kj) of channel o takes exactly one
  // column entry: 0.f + sum over input channels of w * x, then the bias.
  // The shape ends on a short band of input rows (h % conv_band_rows(
  // out_c*2*2, w) != 0, checked below).
  const std::int64_t in_c = 4, out_c = 8, h = 50, w = 45;
  const std::int64_t band = conv_band_rows(out_c * 4, w);
  ASSERT_GT(h, band);
  ASSERT_NE(h % band, 0);
  struct RestoreThreads {
    ~RestoreThreads() { set_num_threads(0); }
  } restore;
  Rng rng(22);
  ConvTranspose2d up(in_c, out_c, rng);
  up.parameters()[1].val_mut().copy_from(Tensor::randn({out_c}, rng));
  const Tensor& wt = up.parameters()[0].val();
  const Tensor& bias = up.parameters()[1].val();
  const Tensor x = Tensor::randn({2, in_c, h, w}, rng);
  Tensor want({2, out_c, 2 * h, 2 * w});
  for (std::int64_t i = 0; i < 2; ++i)
    for (std::int64_t o = 0; o < out_c; ++o)
      for (std::int64_t oi = 0; oi < 2 * h; ++oi)
        for (std::int64_t oj = 0; oj < 2 * w; ++oj) {
          float acc = 0.f;
          for (std::int64_t ch = 0; ch < in_c; ++ch) {
            volatile float prod = wt.at({ch, (o * 2 + oi % 2) * 2 + oj % 2}) *
                                  x.at({i, ch, oi / 2, oj / 2});
            acc += prod;
          }
          want.at({i, o, oi, oj}) = (0.f + acc) + bias[o];
        }
  for (const int threads : {1, 2, 7}) {
    set_num_threads(threads);
    NoGradGuard ng;
    const Tensor got = up.forward(Var::constant(x)).val();
    ASSERT_EQ(got.shape(), want.shape());
    for (std::int64_t j = 0; j < want.numel(); ++j)
      ASSERT_EQ(got[j], want[j]) << "threads=" << threads << " at " << j;
  }
}

// ------------------------------------------ fused batch norm + ReLU epilogue

std::uint32_t float_bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// An eval batch norm whose constants are not the init ones: random gamma
// and beta, running statistics moved by two training-mode forwards over
// the layer's output on shifted inputs.
template <class Layer>
void make_bn_nontrivial(BatchNorm2d& bn, const Layer& layer,
                        const Shape& in_shape, Rng& rng) {
  bn.set_training(true);
  for (int rep = 0; rep < 2; ++rep) {
    const Tensor x = Tensor::randn(in_shape, rng, 0.7f, 1.5f);
    bn.forward(layer.forward(Var::constant(x)));
  }
  bn.set_training(false);
  Tensor& gamma = bn.parameters()[0].val_mut();
  Tensor& beta = bn.parameters()[1].val_mut();
  for (std::int64_t ch = 0; ch < gamma.numel(); ++ch) {
    gamma[ch] = rng.normal(1.f, 0.5f);
    beta[ch] = rng.normal(0.f, 0.3f);
  }
}

// The grad-free fused layer (conv band loop + bias + eval batch norm +
// ReLU in each band's epilogue) against the taped relu(bn(layer(x))), bit
// for bit on every backend (both run the same band loop and gemm calls).
// Every shape has an output width that is not a multiple of the 4 vector
// lanes and ends on a short band.
template <class Layer>
void expect_fused_matches_taped(const Layer& layer, BatchNorm2d& bn,
                                const Shape& in_shape, Rng& rng,
                                const char* what) {
  make_bn_nontrivial(bn, layer, in_shape, rng);
  ASSERT_NE(bn.running_mean()[0], 0.f);
  ASSERT_NE(bn.running_var()[0], 1.f);
  struct RestoreThreads {
    ~RestoreThreads() { set_num_threads(0); }
  } restore;
  const Tensor x = Tensor::randn(in_shape, rng);
  const Tensor want =
      ag::relu(bn.forward(layer.forward(Var::constant(x)))).val();
  ASSERT_NE(want.size(3) % 4, 0) << what;
  for (const int threads : {1, 2, 7}) {
    set_num_threads(threads);
    NoGradGuard ng;
    const Tensor got = layer.forward_bn_relu(Var::constant(x), bn).val();
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (std::int64_t i = 0; i < want.numel(); ++i) {
      ASSERT_EQ(float_bits(got[i]), float_bits(want[i]))
          << what << " threads=" << threads << " at " << i << ": "
          << got[i] << " vs " << want[i];
    }
  }
}

TEST(FusedEpilogue, Conv3x3BnReluBitwiseMatchesTapedOps) {
  Rng rng(30);
  Conv2d conv(4, 8, 3, 1, 1, rng);
  conv.parameters()[1].val_mut().copy_from(Tensor::randn({8}, rng));
  BatchNorm2d bn(8);
  const std::int64_t band = conv_band_rows(4 * 9, 45);
  ASSERT_NE(50 % band, 0);
  ASSERT_GT(50, band);
  expect_fused_matches_taped(conv, bn, {2, 4, 50, 45}, rng, "conv3x3");
}

TEST(FusedEpilogue, Conv1x1BnReluBitwiseMatchesTapedOps) {
  Rng rng(31);
  Conv2d conv(16, 6, 1, 1, 0, rng);
  conv.parameters()[1].val_mut().copy_from(Tensor::randn({6}, rng));
  BatchNorm2d bn(6);
  const std::int64_t band = conv_band_rows(16, 45);
  ASSERT_NE(100 % band, 0);
  ASSERT_GT(100, band);
  expect_fused_matches_taped(conv, bn, {2, 16, 100, 45}, rng, "conv1x1");
}

TEST(FusedEpilogue, ConvTranspose2x2BnReluBitwiseMatchesTapedOps) {
  Rng rng(32);
  ConvTranspose2d up(4, 8, rng);
  up.parameters()[1].val_mut().copy_from(Tensor::randn({8}, rng));
  BatchNorm2d bn(8);
  const std::int64_t band = conv_band_rows(8 * 4, 45);
  ASSERT_NE(50 % band, 0);
  ASSERT_GT(50, band);
  expect_fused_matches_taped(up, bn, {2, 4, 50, 45}, rng, "convT2x2");
}

TEST(FusedEpilogue, RequiresGradOffAndEvalBatchNorm) {
  Rng rng(33);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  BatchNorm2d bn(3);
  const Var x = Var::constant(Tensor::randn({1, 2, 5, 5}, rng));
  {
    NoGradGuard ng;  // training-mode batch norm needs batch statistics
    EXPECT_THROW(conv.forward_bn_relu(x, bn), detail::CheckError);
  }
  bn.set_training(false);
  EXPECT_THROW(conv.forward_bn_relu(x, bn), detail::CheckError);  // grad on
  BatchNorm2d wrong(4);
  wrong.set_training(false);
  NoGradGuard ng;
  EXPECT_THROW(conv.forward_bn_relu(x, wrong), detail::CheckError);
}

TEST(ConvEpilogueRow, ReluMapsNegativeZeroAndNaNToPositiveZero) {
  // An identity batch norm keeps NaN a NaN and -0 a -0 (-0 - 0 = -0, and
  // -0 * 1 = -0; only the + 0 beta makes it +0), so the ReLU's
  // compare-select decides.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  float y[7] = {-0.f, nan, -1.f, 2.f, 0.f, -nan, 3.5f};
  const ops::BnChannel identity{0.f, 1.f, 1.f, 0.f};
  ops::conv_epilogue_row(y, 7, nullptr, &identity);
  const float want[7] = {0.f, 0.f, 0.f, 2.f, 0.f, 0.f, 3.5f};
  for (int i = 0; i < 7; ++i)
    EXPECT_EQ(float_bits(y[i]), float_bits(want[i])) << "at " << i;
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
