// Unit tests for the tensor substrate: storage semantics, shape handling,
// elementwise kernels, GEMM against a naive reference, softmax, reductions,
// and im2col/col2im geometry (whole-image and row bands).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "core/rng.h"
#include "tensor/tensor.h"

namespace apf {
namespace {

TEST(Tensor, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.numel(), 0);
}

TEST(Tensor, ZerosShapeAndValues) {
  Tensor t = Tensor::zeros({2, 3, 4});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.f);
}

TEST(Tensor, FromTakesValues) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(t.at({0, 0}), 1.f);
  EXPECT_EQ(t.at({1, 2}), 6.f);
}

TEST(Tensor, FromRejectsBadCount) {
  EXPECT_THROW(Tensor::from({1, 2, 3}, {2, 2}), detail::CheckError);
}

TEST(Tensor, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::ones({4});
  Tensor b = a;  // shares
  Tensor c = a.clone();
  b[0] = 9.f;
  EXPECT_EQ(a[0], 9.f);
  EXPECT_EQ(c[0], 1.f);
  EXPECT_TRUE(a.shares_storage(b));
  EXPECT_FALSE(a.shares_storage(c));
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a = Tensor::arange(12);
  Tensor b = a.reshape({3, 4});
  EXPECT_TRUE(a.shares_storage(b));
  EXPECT_EQ(b.at({2, 3}), 11.f);
}

TEST(Tensor, ReshapeInfersMinusOne) {
  Tensor a = Tensor::arange(12);
  Tensor b = a.reshape({2, -1});
  EXPECT_EQ(b.size(1), 6);
  EXPECT_THROW(a.reshape({5, -1}), detail::CheckError);
  EXPECT_THROW(a.reshape({-1, -1}), detail::CheckError);
}

TEST(Tensor, ReshapeRejectsWrongNumel) {
  Tensor a = Tensor::arange(12);
  EXPECT_THROW(a.reshape({5, 3}), detail::CheckError);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor a = Tensor::zeros({2, 2});
  EXPECT_THROW(a.at({2, 0}), detail::CheckError);
  EXPECT_THROW(a.at({0}), detail::CheckError);
}

TEST(Tensor, RandnMoments) {
  Rng rng(7);
  Tensor t = Tensor::randn({20000}, rng);
  double mean = 0, var = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) mean += t[i];
  mean /= t.numel();
  for (std::int64_t i = 0; i < t.numel(); ++i)
    var += (t[i] - mean) * (t[i] - mean);
  var /= t.numel();
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependence) {
  Rng a(42);
  Rng c1 = a.fork();
  Rng c2 = a.fork();
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

// ---------------------------------------------------------------- element

TEST(Ops, AddSubMulDiv) {
  Tensor a = Tensor::from({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from({4, 3, 2, 1}, {2, 2});
  EXPECT_EQ(ops::add(a, b)[0], 5.f);
  EXPECT_EQ(ops::sub(a, b)[3], 3.f);
  EXPECT_EQ(ops::mul(a, b)[1], 6.f);
  EXPECT_EQ(ops::div(a, b)[2], 1.5f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 2});
  Tensor b = Tensor::zeros({4});
  EXPECT_THROW(ops::add(a, b), detail::CheckError);
}

TEST(Ops, AxpyAccumulates) {
  Tensor a = Tensor::ones({3});
  Tensor b = Tensor::from({1, 2, 3}, {3});
  ops::axpy(a, 2.f, b);
  EXPECT_EQ(a[2], 7.f);
}

TEST(Ops, AddBiasBroadcasts) {
  Tensor x = Tensor::zeros({2, 3});
  Tensor b = Tensor::from({1, 2, 3}, {3});
  Tensor y = ops::add_bias(x, b);
  EXPECT_EQ(y.at({0, 2}), 3.f);
  EXPECT_EQ(y.at({1, 0}), 1.f);
}

TEST(Ops, SumToLastdim) {
  Tensor x = Tensor::from({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor s = ops::sum_to_lastdim(x);
  EXPECT_EQ(s.numel(), 3);
  EXPECT_EQ(s[0], 5.f);
  EXPECT_EQ(s[2], 9.f);
}

TEST(Ops, GeluMatchesReference) {
  // gelu(0) = 0; gelu(large) ~ identity; gelu(-large) ~ 0.
  Tensor x = Tensor::from({0.f, 5.f, -5.f, 1.f}, {4});
  Tensor y = ops::gelu(x);
  EXPECT_NEAR(y[0], 0.f, 1e-6);
  EXPECT_NEAR(y[1], 5.f, 1e-3);
  EXPECT_NEAR(y[2], 0.f, 1e-3);
  EXPECT_NEAR(y[3], 0.8412f, 1e-3);
}

// GELU in double, as x * sigmoid(2u): equal to the tanh form 0.5 x (1 +
// tanh(u)) in exact arithmetic, but without its cancellation in 1 + tanh(u)
// on the negative tail.
double gelu_double(double x) {
  const double u = 0.7978845608028654 * (x + 0.044715 * x * x * x);
  return x / (1.0 + std::exp(-2.0 * u));
}

TEST(Ops, GeluRowMatchesDoubleFormula) {
  // 2e-6 relative on [-4, 10]. Below -4 the result is under 1e-4 and the
  // bound is set by the float argument of the exponential: its rounding
  // error times |2u| (up to 87 at x = -10) reaches ~1.5e-5 relative.
  std::vector<float> x;
  for (std::int64_t i = -200000; i <= 200000; ++i)
    x.push_back(static_cast<float>(i) * 5e-5f);
  std::vector<float> y(x.size());
  ops::gelu_row(x.data(), static_cast<std::int64_t>(x.size()), y.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = gelu_double(x[i]);
    const double tol = (x[i] >= -4.f ? 2e-6 : 2e-5) * std::fabs(want);
    ASSERT_LE(std::fabs(y[i] - want), tol) << "x = " << x[i];
  }
}

TEST(Ops, GeluRowOnRowSubsetsMatchesWholeTensorBitwise) {
  // The mask-aware Mlp runs gelu_row on valid rows only; its rows (odd
  // widths, so each ends mid-block) must equal ops::gelu's chunks bitwise.
  Rng rng(21);
  const std::int64_t rows = 9, width = 37;
  Tensor x = Tensor::randn({rows, width}, rng, 0.f, 3.f);
  Tensor whole = ops::gelu(x);
  std::vector<float> y(static_cast<std::size_t>(width));
  for (std::int64_t r = 0; r < rows; r += 2) {
    ops::gelu_row(x.data() + r * width, width, y.data());
    for (std::int64_t j = 0; j < width; ++j)
      ASSERT_EQ(y[static_cast<std::size_t>(j)], whole[r * width + j])
          << "row " << r << " col " << j;
  }
  // In place, from an offset that is not a multiple of the lane count.
  Tensor z = x.clone();
  ops::gelu_row(z.data() + 3, x.numel() - 3, z.data() + 3);
  for (std::int64_t i = 3; i < x.numel(); ++i) ASSERT_EQ(z[i], whole[i]);
}

// ------------------------------------------------------------------- gemm

void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const Tensor& a, const Tensor& b, Tensor& c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at({p, i}) : a.at({i, p});
        const float bv = tb ? b.at({j, p}) : b.at({p, j});
        acc += static_cast<double>(av) * bv;
      }
      c.at({i, j}) = static_cast<float>(acc);
    }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {};

TEST_P(GemmShapes, MatchesNaive) {
  auto [m, n, k, ta, tb] = GetParam();
  Rng rng(m * 100 + n * 10 + k + (ta ? 7 : 0) + (tb ? 13 : 0));
  Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
  Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);
  Tensor want({m, n});
  naive_gemm(ta, tb, m, n, k, a, b, want);
  Tensor got = ops::matmul(a, b, ta, tb);
  ASSERT_EQ(got.size(0), m);
  ASSERT_EQ(got.size(1), n);
  for (std::int64_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-3 * std::max(1.f, std::fabs(want[i])))
        << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1, false, false),
                      std::make_tuple(3, 5, 7, false, false),
                      std::make_tuple(3, 5, 7, true, false),
                      std::make_tuple(3, 5, 7, false, true),
                      std::make_tuple(3, 5, 7, true, true),
                      std::make_tuple(64, 64, 64, false, false),
                      std::make_tuple(65, 63, 129, false, false),
                      std::make_tuple(65, 63, 129, true, true),
                      std::make_tuple(128, 300, 17, false, true),
                      std::make_tuple(1, 256, 256, false, false)));

TEST(Gemm, BetaScalesExisting) {
  Tensor c = Tensor::ones({2, 2});
  Tensor a = Tensor::ones({2, 1});
  Tensor b = Tensor::ones({1, 2});
  gemm(false, false, 2, 2, 1, 1.f, a.data(), 1, b.data(), 2, 0.5f, c.data(), 2);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 1.5f);
}

TEST(Gemm, KZeroOnlyScales) {
  Tensor c = Tensor::full({2, 2}, 3.f);
  gemm(false, false, 2, 2, 0, 1.f, nullptr, 1, nullptr, 1, 0.f, c.data(), 2);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 0.f);
}

TEST(Ops, BmmBatches) {
  Rng rng(3);
  Tensor a = Tensor::randn({4, 3, 5}, rng);
  Tensor b = Tensor::randn({4, 5, 2}, rng);
  Tensor c = ops::bmm(a, b);
  ASSERT_EQ(c.shape(), (Shape{4, 3, 2}));
  // Batch 2 equals standalone matmul of its slices.
  Tensor a2 = ops::slice(a, 0, 2, 1).reshape({3, 5});
  Tensor b2 = ops::slice(b, 0, 2, 1).reshape({5, 2});
  Tensor want = ops::matmul(a2, b2);
  for (std::int64_t i = 0; i < 6; ++i)
    EXPECT_NEAR(c[2 * 6 + i], want[i], 1e-4);
}

// ------------------------------------------------------------------ shape

TEST(Ops, PermuteRoundTrip) {
  Rng rng(1);
  Tensor x = Tensor::randn({2, 3, 4}, rng);
  Tensor y = ops::permute(x, {2, 0, 1});
  ASSERT_EQ(y.shape(), (Shape{4, 2, 3}));
  EXPECT_EQ(y.at({1, 0, 2}), x.at({0, 2, 1}));
  Tensor back = ops::permute(y, {1, 2, 0});
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(Ops, ConcatAxis0And1) {
  Tensor a = Tensor::from({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from({5, 6}, {1, 2});
  Tensor c0 = ops::concat({a, b}, 0);
  ASSERT_EQ(c0.shape(), (Shape{3, 2}));
  EXPECT_EQ(c0.at({2, 1}), 6.f);
  Tensor d = Tensor::from({7, 8}, {2, 1});
  Tensor c1 = ops::concat({a, d}, 1);
  ASSERT_EQ(c1.shape(), (Shape{2, 3}));
  EXPECT_EQ(c1.at({1, 2}), 8.f);
}

TEST(Ops, SliceMiddle) {
  Tensor x = Tensor::arange(24).reshape({2, 3, 4});
  Tensor s = ops::slice(x, 1, 1, 2);
  ASSERT_EQ(s.shape(), (Shape{2, 2, 4}));
  EXPECT_EQ(s.at({0, 0, 0}), 4.f);
  EXPECT_EQ(s.at({1, 1, 3}), 23.f);
}

TEST(Ops, SliceOutOfRangeThrows) {
  Tensor x = Tensor::zeros({4});
  EXPECT_THROW(ops::slice(x, 0, 2, 3), detail::CheckError);
}

// ---------------------------------------------------------------- softmax

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor x = Tensor::randn({7, 11}, rng, 0.f, 3.f);
  Tensor y = ops::softmax_lastdim(x);
  for (std::int64_t r = 0; r < 7; ++r) {
    double s = 0;
    for (std::int64_t j = 0; j < 11; ++j) {
      EXPECT_GE(y.at({r, j}), 0.f);
      s += y.at({r, j});
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxStableForHugeLogits) {
  Tensor x = Tensor::from({1000.f, 1000.f, -1000.f}, {1, 3});
  Tensor y = ops::softmax_lastdim(x);
  EXPECT_NEAR(y[0], 0.5f, 1e-5);
  EXPECT_NEAR(y[2], 0.f, 1e-6);
}

TEST(Ops, SoftmaxMaskZeroesKeys) {
  Tensor x = Tensor::zeros({2, 4});  // B=2, N=4, one row per batch
  Tensor mask = Tensor::from({1, 1, 0, 0, 1, 1, 1, 1}, {2, 4});
  Tensor y = ops::softmax_lastdim(x, &mask);
  EXPECT_NEAR(y.at({0, 0}), 0.5f, 1e-5);
  EXPECT_EQ(y.at({0, 2}), 0.f);
  EXPECT_NEAR(y.at({1, 3}), 0.25f, 1e-5);
}

TEST(Ops, SoftmaxFullyMaskedRowIsZero) {
  Tensor x = Tensor::zeros({1, 3});
  Tensor mask = Tensor::zeros({1, 3});
  Tensor y = ops::softmax_lastdim(x, &mask);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(y[i], 0.f);
}

TEST(Ops, SoftmaxNoMassRowsAreZeroNotNaN) {
  // Rows with no surviving probability mass must come out all-zero on
  // every path: fully masked, and all unmasked entries -inf.
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x = Tensor::from({ninf, ninf, ninf, 0.f, ninf, 1.f}, {2, 3});
  Tensor y = ops::softmax_lastdim(x);
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_EQ(y[j], 0.f) << "all -inf row must be zero, not NaN";
    EXPECT_FALSE(std::isnan(y[3 + j]));
  }
  // Mixed: the finite entries of row 1 still form a proper distribution.
  EXPECT_NEAR(y.at({1, 0}) + y.at({1, 2}), 1.f, 1e-6);

  // Masked variant where the only unmasked key is -inf.
  Tensor x2 = Tensor::from({ninf, 5.f}, {1, 2});
  Tensor m2 = Tensor::from({1, 0}, {1, 2});
  Tensor y2 = ops::softmax_lastdim(x2, &m2);
  EXPECT_EQ(y2[0], 0.f);
  EXPECT_EQ(y2[1], 0.f);
}

TEST(Ops, SoftmaxMaskWithMultipleRowsPerBatch) {
  // x is [B*rows_per_b, N] with B=2, rows_per_b=2.
  Tensor x = Tensor::zeros({4, 2});
  Tensor mask = Tensor::from({1, 0, 1, 1}, {2, 2});
  Tensor y = ops::softmax_lastdim(x, &mask);
  // First two rows use mask row 0 -> all mass on key 0.
  EXPECT_NEAR(y.at({0, 0}), 1.f, 1e-6);
  EXPECT_NEAR(y.at({1, 0}), 1.f, 1e-6);
  EXPECT_NEAR(y.at({2, 0}), 0.5f, 1e-6);
}

TEST(Ops, SoftmaxRowPrefixMatchesMaskedFullRowBitwise) {
  // The fused attention kernel runs softmax_row in place over each item's
  // valid key prefix; the taped path runs it over the padded row with the
  // suffix masked. Lane order makes both give the same bits, for every
  // prefix length against every block phase of the suffix.
  Rng rng(22);
  const float ninf = -std::numeric_limits<float>::infinity();
  for (std::int64_t v = 1; v <= 33; ++v) {
    for (std::int64_t pad = 0; pad <= 9; ++pad) {
      const std::int64_t n = v + pad;
      Tensor x = Tensor::randn({n}, rng, 0.f, 3.f);
      Tensor mask = Tensor::ones({n});
      for (std::int64_t j = v; j < n; ++j) mask[j] = 0.f;
      if (v > 5) mask[v / 2] = 0.f;  // a masked key inside the prefix too
      Tensor full = Tensor::zeros({n});
      ops::softmax_row(x.data(), mask.data(), n, full.data());
      Tensor prefix = x.clone();
      ops::softmax_row(prefix.data(), mask.data(), v, prefix.data());
      for (std::int64_t j = 0; j < v; ++j)
        ASSERT_EQ(prefix[j], full[j])
            << "masked: v=" << v << " pad=" << pad << " j=" << j;
      for (std::int64_t j = v; j < n; ++j) ASSERT_EQ(full[j], 0.f);

      // An unmasked row whose suffix is -inf reads the same way.
      Tensor xinf = x.clone();
      for (std::int64_t j = v; j < n; ++j) xinf[j] = ninf;
      ops::softmax_row(xinf.data(), nullptr, n, full.data());
      ops::softmax_row(x.data(), nullptr, v, prefix.data());
      for (std::int64_t j = 0; j < v; ++j)
        ASSERT_EQ(prefix[j], full[j])
            << "-inf suffix: v=" << v << " pad=" << pad << " j=" << j;
    }
  }
}

TEST(Ops, SoftmaxOfTwoMatchesDoubleAcrossExpRange) {
  // softmax({0, x}) = (1, e^x) / (1 + e^x): every exp argument down to the
  // edge of the normal range, within 4e-7 relative of double.
  for (std::int64_t i = 0; i <= 87000; ++i) {
    const float x = static_cast<float>(i) * -1e-3f;
    const float in[2] = {0.f, x};
    float out[2];
    ops::softmax_row(in, nullptr, 2, out);
    const double e = std::exp(static_cast<double>(x));
    const double want[2] = {1.0 / (1.0 + e), e / (1.0 + e)};
    for (int j = 0; j < 2; ++j)
      ASSERT_LE(std::fabs(out[j] - want[j]), 4e-7 * want[j])
          << "x = " << x << " output " << j;
  }
}

TEST(Ops, RowKernelsSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Softmax of {0, s}: the exp clamps see NaN, +-inf and +-1e30 arguments.
  const auto softmax2 = [](float a, float b) {
    const float in[2] = {a, b};
    std::vector<float> out(2);
    ops::softmax_row(in, nullptr, 2, out.data());
    return out;
  };
  EXPECT_EQ(softmax2(0.f, -inf), (std::vector<float>{1.f, 0.f}));
  EXPECT_EQ(softmax2(0.f, -1e30f), (std::vector<float>{1.f, 0.f}));
  EXPECT_EQ(softmax2(0.f, 1e30f), (std::vector<float>{0.f, 1.f}));
  EXPECT_EQ(softmax2(1e30f, -1e30f), (std::vector<float>{1.f, 0.f}));
  EXPECT_EQ(softmax2(0.f, -100.f), (std::vector<float>{1.f, 0.f}));
  for (float bad : {nan, inf}) {  // NaN, or inf - inf: the row is NaN
    const std::vector<float> y = softmax2(0.f, bad);
    EXPECT_TRUE(std::isnan(y[0]) && std::isnan(y[1])) << bad;
  }
  // A masked NaN is just a masked key.
  const float in[3] = {nan, 0.f, 0.f};
  const float mask[3] = {0.f, 1.f, 1.f};
  float out[3];
  ops::softmax_row(in, mask, 3, out);
  EXPECT_EQ(out[0], 0.f);
  EXPECT_EQ(out[1], 0.5f);
  EXPECT_EQ(out[2], 0.5f);

  // GELU: +inf and large positive inputs pass through, large negative ones
  // give zero (the exp saturates to +inf), -inf gives NaN as the tanh form
  // 0.5 * -inf * (1 + tanh(-inf)) does, and NaN stays NaN.
  const float x[8] = {nan, inf, -inf, 1e30f, -1e30f, 100.f, -100.f, 0.f};
  float g[8];
  ops::gelu_row(x, 8, g);
  EXPECT_TRUE(std::isnan(g[0]));
  EXPECT_EQ(g[1], inf);
  EXPECT_TRUE(std::isnan(g[2]));
  EXPECT_EQ(g[3], 1e30f);
  EXPECT_EQ(g[4], 0.f);
  EXPECT_EQ(g[5], 100.f);
  EXPECT_EQ(g[6], 0.f);
  EXPECT_EQ(g[7], 0.f);
}

// -------------------------------------------------------------- reductions

TEST(Ops, SumMean) {
  Tensor x = Tensor::from({1, -2, 3, 0}, {4});
  EXPECT_FLOAT_EQ(ops::sum_all(x), 2.f);
  EXPECT_FLOAT_EQ(ops::mean_all(x), 0.5f);
}

TEST(Ops, ArgmaxLastdim) {
  Tensor x = Tensor::from({1, 5, 2, 9, 0, 3}, {2, 3});
  auto idx = ops::argmax_lastdim(x);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

// ------------------------------------------------------------------ im2col

TEST(Ops, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1: columns == flattened image.
  Tensor x = Tensor::arange(12).reshape({1, 3, 4});
  Tensor cols = ops::im2col(x, 1, 1, 1, 0);
  ASSERT_EQ(cols.shape(), (Shape{1, 12}));
  for (std::int64_t i = 0; i < 12; ++i) EXPECT_EQ(cols[i], x[i]);
}

TEST(Ops, Im2ColGeometry) {
  Tensor x = Tensor::arange(16).reshape({1, 4, 4});
  Tensor cols = ops::im2col(x, 3, 3, 1, 1);
  ASSERT_EQ(cols.shape(), (Shape{9, 16}));
  // Centre tap (ki=1, kj=1) row equals the image itself.
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(cols.at({4, i}), x[i]);
  // Top-left tap at output (0,0) reads padded zero.
  EXPECT_EQ(cols.at({0, 0}), 0.f);
}

TEST(Ops, Im2ColBandEqualsWholeImageRows) {
  // A band of output rows [oi0, oi1), written at its own row stride, holds
  // exactly those output rows' columns of the whole-image im2col (Conv2d's
  // banded forward relies on it), and leaves the stride slack untouched.
  Rng rng(12);
  const Tensor x = Tensor::randn({3, 11, 13}, rng);
  for (const std::int64_t stride : {1, 2}) {
    for (const std::int64_t pad : {0, 1}) {
      const Tensor whole = ops::im2col(x, 3, 3, stride, pad);
      const std::int64_t oh = (11 + 2 * pad - 3) / stride + 1;
      const std::int64_t ow = (13 + 2 * pad - 3) / stride + 1;
      const std::int64_t ckk = whole.size(0);
      for (std::int64_t oi0 = 0; oi0 < oh; ++oi0) {
        for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{3}, oh}) {
          const std::int64_t oi1 = std::min(oh, oi0 + rows);
          const std::int64_t n = (oi1 - oi0) * ow;
          const std::int64_t ldo = n + 5;
          std::vector<float> band(static_cast<std::size_t>(ckk * ldo), -7.f);
          ops::im2col_into(x.data(), 3, 11, 13, 3, 3, stride, pad,
                           band.data(), ldo, oi0, oi1);
          for (std::int64_t r = 0; r < ckk; ++r) {
            for (std::int64_t j = 0; j < n; ++j)
              ASSERT_EQ(band[static_cast<std::size_t>(r * ldo + j)],
                        whole.at({r, oi0 * ow + j}))
                  << "stride=" << stride << " pad=" << pad << " rows ["
                  << oi0 << ", " << oi1 << ") r=" << r << " j=" << j;
            for (std::int64_t j = n; j < ldo; ++j)
              ASSERT_EQ(band[static_cast<std::size_t>(r * ldo + j)], -7.f);
          }
        }
      }
    }
  }
}

TEST(Ops, Col2ImAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
  Rng rng(11);
  Tensor x = Tensor::randn({2, 5, 6}, rng);
  Tensor cols = ops::im2col(x, 3, 3, 2, 1);
  Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back = ops::col2im(y, 2, 5, 6, 3, 3, 2, 1);
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) lhs += cols[i] * y[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

}  // namespace
}  // namespace apf
