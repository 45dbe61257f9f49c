#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/init.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "core/parallel_for.h"

namespace apf::nn {
namespace {

/// Copies item b of an NCHW tensor into a standalone [C, H, W] tensor.
Tensor item(const Tensor& x, std::int64_t b) {
  const std::int64_t c = x.size(1), h = x.size(2), w = x.size(3);
  Tensor out = Tensor::empty({c, h, w});
  const std::int64_t n = c * h * w;
  std::copy(x.data() + b * n, x.data() + (b + 1) * n, out.data());
  return out;
}

/// The calling thread's band scratch, at least n floats. Not a Tensor: on
/// pool threads no ArenaScope is open, so a tensor here would be a heap
/// allocation per band. Reused across calls, like the gemm pack buffers.
/// A band task holds it across its own gemm only, and a thread waiting on
/// that gemm runs nothing but the gemm's chunks (core/thread_pool.h), so
/// both conv layers share it.
float* band_scratch(std::int64_t n) {
  thread_local std::vector<float> scratch;
  scratch.resize(static_cast<std::size_t>(n));
  return scratch.data();
}

/// bn's eval constants for the epilogue of a layer with `channels` outputs.
std::vector<ops::BnChannel> eval_epilogue(const BatchNorm2d& bn,
                                          std::int64_t channels) {
  APF_CHECK(!ag::grad_enabled() && !bn.training(),
            "forward_bn_relu: needs grad off and batch norm in eval mode");
  std::vector<ops::BnChannel> ch = bn.eval_channels();
  APF_CHECK(static_cast<std::int64_t>(ch.size()) == channels,
            "forward_bn_relu: batch norm over " << ch.size()
                                                << " channels, layer has "
                                                << channels);
  return ch;
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng, bool bias)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), stride_(stride),
      pad_(pad) {
  APF_CHECK(kernel >= 1 && stride >= 1 && pad >= 0, "Conv2d: bad geometry");
  weight_ = add_param("weight", kaiming_normal({out_c_, in_c_ * k_ * k_},
                                               in_c_ * k_ * k_, rng));
  if (bias) bias_ = add_param("bias", Tensor::zeros({out_c_}));
}

std::int64_t conv_band_rows(std::int64_t ckk, std::int64_t out_w) {
  return std::max<std::int64_t>(1, kGemmBlockK * kGemmBlockN / (ckk * out_w));
}

Tensor Conv2d::run(const Tensor& xv, const ops::BnChannel* bn) const {
  APF_CHECK(xv.ndim() == 4 && xv.size(1) == in_c_,
            "Conv2d: input " << xv.str() << " vs in_channels " << in_c_);
  const std::int64_t b = xv.size(0), h = xv.size(2), w = xv.size(3);
  const std::int64_t oh = (h + 2 * pad_ - k_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * pad_ - k_) / stride_ + 1;
  APF_CHECK(oh > 0 && ow > 0, "Conv2d: output collapsed for input " << xv.str());

  // Row bands: each (item, band of output rows) task fills that band's
  // [C*K*K, rows*OW] columns into per-thread scratch of about one gemm B
  // block — so the gemm streams it from L2 — and multiplies it straight
  // into y at ldc = OH*OW. Gemm row stability (gemm.h) makes any column
  // split bitwise neutral: each output element still starts at zero and
  // adds w[o][p] * col[p][j] over p in (channel, ki, kj) order, k-blocked
  // as before, then its epilogue.
  const std::int64_t ckk = in_c_ * k_ * k_;
  const std::int64_t plane = oh * ow;
  const std::int64_t band = conv_band_rows(ckk, ow);
  const std::int64_t bands = (oh + band - 1) / band;
  // 1x1 stride-1 conv: the columns ARE the input planes, so gemm reads the
  // band straight out of x (row stride H*W) and nothing is copied.
  const bool identity = k_ == 1 && stride_ == 1 && pad_ == 0;
  Tensor y = Tensor::empty({b, out_c_, oh, ow});
  const float* px = xv.data();
  const float* pw = weight_.val().data();
  const float* pb = bias_.defined() ? bias_.val().data() : nullptr;
  float* py = y.data();
  parallel_for(b * bands, [&](std::int64_t task) {
    const std::int64_t i = task / bands;
    const std::int64_t oi0 = task % bands * band;
    const std::int64_t oi1 = std::min(oh, oi0 + band);
    const std::int64_t n = (oi1 - oi0) * ow;
    const float* xi = px + i * in_c_ * h * w;
    const float* cols = xi + oi0 * ow;
    std::int64_t ldb = plane;
    if (!identity) {
      float* scratch = band_scratch(ckk * band * ow);
      ops::im2col_into(xi, in_c_, h, w, k_, k_, stride_, pad_, scratch, n,
                       oi0, oi1);
      cols = scratch;
      ldb = n;
    }
    float* yb = py + i * out_c_ * plane + oi0 * ow;
    gemm(false, false, out_c_, n, ckk, 1.f, pw, ckk, cols, ldb, 0.f, yb,
         plane);
    for (std::int64_t o = 0; o < out_c_; ++o) {
      ops::conv_epilogue_row(yb + o * plane, n,
                             pb != nullptr ? pb + o : nullptr,
                             bn != nullptr ? bn + o : nullptr);
    }
  }, /*grain=*/1);
  return y;
}

Var Conv2d::forward_bn_relu(const Var& x, const BatchNorm2d& bn) const {
  const std::vector<ops::BnChannel> ch = eval_epilogue(bn, out_c_);
  return Var::constant(run(x.val(), ch.data()));
}

Var Conv2d::forward(const Var& x) const {
  const Tensor& xv = x.val();
  Tensor y = run(xv, nullptr);
  const std::int64_t b = xv.size(0), h = xv.size(2), w = xv.size(3);
  const std::int64_t oh = y.size(2), ow = y.size(3);

  auto xn = x.node();
  auto wn = weight_.node();
  auto bn = bias_.defined() ? bias_.node() : nullptr;
  const std::int64_t in_c = in_c_, out_c = out_c_, k = k_, stride = stride_,
                     pad = pad_;
  std::vector<Var> parents{x, weight_};
  if (bias_.defined()) parents.push_back(bias_);
  return ag::make_op(
      y, parents,
      [xn, wn, bn, in_c, out_c, k, stride, pad, b, h, w, oh,
       ow](ag::Node& n) {
        const Tensor& dy = n.grad;
        for (std::int64_t i = 0; i < b; ++i) {
          Tensor dyi({out_c, oh * ow});
          std::copy(dy.data() + i * out_c * oh * ow,
                    dy.data() + (i + 1) * out_c * oh * ow, dyi.data());
          // im2col recomputed from the saved input (memory/compute trade).
          Tensor cols = ops::im2col(item(xn->value, i), k, k, stride, pad);
          if (wn->requires_grad)
            ops::axpy(wn->ensure_grad(), 1.f,
                      ops::matmul(dyi, cols, false, true));
          if (xn->requires_grad) {
            Tensor dcols = ops::matmul(wn->value, dyi, true, false);
            Tensor dxi = ops::col2im(dcols, in_c, h, w, k, k, stride, pad);
            float* pg = xn->ensure_grad().data() + i * in_c * h * w;
            const float* ps = dxi.data();
            parallel_for(in_c * h * w,
                         [&](std::int64_t j) { pg[j] += ps[j]; }, 4096);
          }
        }
        if (bn && bn->requires_grad) {
          Tensor& db = bn->ensure_grad();
          float* pdb = db.data();
          const float* pdy = dy.data();
          parallel_for(out_c, [&](std::int64_t ch) {
            double acc = 0.0;
            for (std::int64_t i = 0; i < b; ++i) {
              const float* row = pdy + (i * out_c + ch) * oh * ow;
              for (std::int64_t j = 0; j < oh * ow; ++j) acc += row[j];
            }
            pdb[ch] += static_cast<float>(acc);
          }, 1);
        }
      },
      "conv2d");
}

ConvTranspose2d::ConvTranspose2d(std::int64_t in_channels,
                                 std::int64_t out_channels, Rng& rng,
                                 bool bias)
    : in_c_(in_channels), out_c_(out_channels) {
  weight_ = add_param(
      "weight", kaiming_normal({in_c_, out_c_ * 4}, in_c_ * 4, rng));
  if (bias) bias_ = add_param("bias", Tensor::zeros({out_c_}));
}

Tensor ConvTranspose2d::run(const Tensor& xv, const ops::BnChannel* bn) const {
  APF_CHECK(xv.ndim() == 4 && xv.size(1) == in_c_,
            "ConvTranspose2d: input " << xv.str() << " vs " << in_c_);
  const std::int64_t b = xv.size(0), h = xv.size(2), w = xv.size(3);
  const std::int64_t oh = 2 * h, ow = 2 * w;

  // y_i = col2im(W^T @ x_i), the exact adjoint of a 2x2 stride-2 conv, one
  // band of input rows per task: the band's [OC*4, rows*W] columns go to
  // per-thread scratch of about one gemm B block (gemm row stability makes
  // the column split bitwise neutral). With kernel == stride every output
  // pixel takes exactly one column entry, so col2im is a permutation:
  // output row 2r + ki of channel o interleaves the column rows (o, ki, 0)
  // and (o, ki, 1) of input row r. Each output row is written once —
  // 0.f + column, which is what col2im's zeroed plane plus its one add
  // produced (-0 becomes +0) — then runs its epilogue.
  const std::int64_t okk = out_c_ * 4;
  const std::int64_t band = conv_band_rows(okk, w);
  const std::int64_t bands = (h + band - 1) / band;
  Tensor y = Tensor::empty({b, out_c_, oh, ow});
  const float* px = xv.data();
  const float* pw = weight_.val().data();
  const float* pb = bias_.defined() ? bias_.val().data() : nullptr;
  float* py = y.data();
  parallel_for(b * bands, [&](std::int64_t task) {
    const std::int64_t i = task / bands;
    const std::int64_t r0 = task % bands * band;
    const std::int64_t r1 = std::min(h, r0 + band);
    const std::int64_t n = (r1 - r0) * w;
    float* cols = band_scratch(okk * band * w);
    gemm(true, false, okk, n, in_c_, 1.f, pw, okk,
         px + i * in_c_ * h * w + r0 * w, h * w, 0.f, cols, n);
    for (std::int64_t o = 0; o < out_c_; ++o) {
      const float* bo = pb != nullptr ? pb + o : nullptr;
      const ops::BnChannel* bno = bn != nullptr ? bn + o : nullptr;
      float* yo = py + (i * out_c_ + o) * oh * ow;
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t ki = 0; ki < 2; ++ki) {
          float* dst = yo + (2 * r + ki) * ow;
          const float* src = cols + (2 * o + ki) * 2 * n + (r - r0) * w;
          for (std::int64_t j = 0; j < w; ++j) {
            dst[2 * j] = 0.f + src[j];
            dst[2 * j + 1] = 0.f + src[n + j];
          }
          ops::conv_epilogue_row(dst, ow, bo, bno);
        }
      }
    }
  }, /*grain=*/1);
  return y;
}

Var ConvTranspose2d::forward_bn_relu(const Var& x,
                                     const BatchNorm2d& bn) const {
  const std::vector<ops::BnChannel> ch = eval_epilogue(bn, out_c_);
  return Var::constant(run(x.val(), ch.data()));
}

Var ConvTranspose2d::forward(const Var& x) const {
  const Tensor& xv = x.val();
  Tensor y = run(xv, nullptr);
  const std::int64_t b = xv.size(0), h = xv.size(2), w = xv.size(3);
  const std::int64_t oh = y.size(2), ow = y.size(3);

  auto xn = x.node();
  auto wn = weight_.node();
  auto bn = bias_.defined() ? bias_.node() : nullptr;
  const std::int64_t in_c = in_c_, out_c = out_c_;
  std::vector<Var> parents{x, weight_};
  if (bias_.defined()) parents.push_back(bias_);
  return ag::make_op(
      y, parents,
      [xn, wn, bn, in_c, out_c, b, h, w, oh, ow](ag::Node& n) {
        const Tensor& dy = n.grad;
        for (std::int64_t i = 0; i < b; ++i) {
          Tensor dyi({out_c, oh, ow});
          std::copy(dy.data() + i * out_c * oh * ow,
                    dy.data() + (i + 1) * out_c * oh * ow, dyi.data());
          Tensor dy_cols = ops::im2col(dyi, 2, 2, 2, 0);  // [OC*2*2, h*w]
          if (xn->requires_grad) {
            // dX_i = W @ im2col(dY_i).
            Tensor dxi = ops::matmul(wn->value, dy_cols);
            float* pg = xn->ensure_grad().data() + i * in_c * h * w;
            const float* ps = dxi.data();
            parallel_for(in_c * h * w,
                         [&](std::int64_t j) { pg[j] += ps[j]; }, 4096);
          }
          if (wn->requires_grad) {
            Tensor xi = item(xn->value, i).reshape({in_c, h * w});
            ops::axpy(wn->ensure_grad(), 1.f,
                      ops::matmul(xi, dy_cols, false, true));
          }
        }
        if (bn && bn->requires_grad) {
          Tensor& db = bn->ensure_grad();
          float* pdb = db.data();
          const float* pdy = dy.data();
          parallel_for(out_c, [&](std::int64_t ch) {
            double acc = 0.0;
            for (std::int64_t i = 0; i < b; ++i) {
              const float* row = pdy + (i * out_c + ch) * oh * ow;
              for (std::int64_t j = 0; j < oh * ow; ++j) acc += row[j];
            }
            pdb[ch] += static_cast<float>(acc);
          }, 1);
        }
      },
      "conv_transpose2d");
}

Var MaxPool2d::forward(const Var& x) const {
  const Tensor& xv = x.val();
  APF_CHECK(xv.ndim() == 4 && xv.size(2) % 2 == 0 && xv.size(3) % 2 == 0,
            "MaxPool2d: need even H, W; got " << xv.str());
  const std::int64_t b = xv.size(0), c = xv.size(1), h = xv.size(2),
                     w = xv.size(3);
  const std::int64_t oh = h / 2, ow = w / 2;
  Tensor y({b, c, oh, ow});
  auto arg = std::make_shared<std::vector<std::int64_t>>(
      static_cast<std::size_t>(b * c * oh * ow));
  const float* px = xv.data();
  float* py = y.data();
  parallel_for(b * c, [&](std::int64_t plane) {
    const float* xp = px + plane * h * w;
    float* yp = py + plane * oh * ow;
    std::int64_t* ap = arg->data() + plane * oh * ow;
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        const std::int64_t base = 2 * i * w + 2 * j;
        const std::int64_t cand[4] = {base, base + 1, base + w, base + w + 1};
        std::int64_t best = cand[0];
        for (int t = 1; t < 4; ++t)
          if (xp[cand[t]] > xp[best]) best = cand[t];
        yp[i * ow + j] = xp[best];
        ap[i * ow + j] = best;
      }
    }
  });
  auto xn = x.node();
  return ag::make_op(
      y, {x},
      [xn, arg, b, c, h, w, oh, ow](ag::Node& n) {
        Tensor& g = xn->ensure_grad();
        float* pg = g.data();
        const float* pd = n.grad.data();
        parallel_for(b * c, [&](std::int64_t plane) {
          float* gp = pg + plane * h * w;
          const float* dp = pd + plane * oh * ow;
          const std::int64_t* ap = arg->data() + plane * oh * ow;
          for (std::int64_t i = 0; i < oh * ow; ++i) gp[ap[i]] += dp[i];
        });
      },
      "maxpool2d");
}

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps, float momentum)
    : c_(channels), eps_(eps), momentum_(momentum) {
  gamma_ = add_param("gamma", Tensor::ones({c_}));
  beta_ = add_param("beta", Tensor::zeros({c_}));
  running_mean_ = add_buffer("running_mean", Tensor::zeros({c_}));
  running_var_ = add_buffer("running_var", Tensor::ones({c_}));
}

std::vector<ops::BnChannel> BatchNorm2d::eval_channels() const {
  std::vector<ops::BnChannel> out(static_cast<std::size_t>(c_));
  const float* pg = gamma_.val().data();
  const float* pb = beta_.val().data();
  for (std::int64_t ch = 0; ch < c_; ++ch) {
    out[static_cast<std::size_t>(ch)] = {
        running_mean_[ch], 1.f / std::sqrt(running_var_[ch] + eps_), pg[ch],
        pb[ch]};
  }
  return out;
}

Var BatchNorm2d::forward(const Var& x) const {
  const Tensor& xv = x.val();
  APF_CHECK(xv.ndim() == 4 && xv.size(1) == c_,
            "BatchNorm2d: input " << xv.str() << " vs channels " << c_);
  const std::int64_t b = xv.size(0), h = xv.size(2), w = xv.size(3);
  const std::int64_t m = b * h * w;  // reduction size per channel
  const bool train = training();

  Tensor mean({c_}), var({c_});
  if (train) {
    const float* px = xv.data();
    float* pm = mean.data();
    float* pv = var.data();
    parallel_for(c_, [&](std::int64_t ch) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < b; ++i) {
        const float* p = px + (i * c_ + ch) * h * w;
        for (std::int64_t j = 0; j < h * w; ++j) acc += p[j];
      }
      const double mu = acc / m;
      double vacc = 0.0;
      for (std::int64_t i = 0; i < b; ++i) {
        const float* p = px + (i * c_ + ch) * h * w;
        for (std::int64_t j = 0; j < h * w; ++j) {
          const double d = p[j] - mu;
          vacc += d * d;
        }
      }
      pm[ch] = static_cast<float>(mu);
      pv[ch] = static_cast<float>(vacc / m);
    }, 1);
    // Update running stats (EMA).
    for (std::int64_t ch = 0; ch < c_; ++ch) {
      running_mean_[ch] =
          (1.f - momentum_) * running_mean_[ch] + momentum_ * mean[ch];
      running_var_[ch] =
          (1.f - momentum_) * running_var_[ch] + momentum_ * var[ch];
    }
  } else {
    mean.copy_from(running_mean_);
    var.copy_from(running_var_);
  }

  Tensor y = Tensor::empty(xv.shape());
  Tensor inv_std = Tensor::empty({c_});
  const float* px = xv.data();
  const float* pg = gamma_.val().data();
  const float* pb = beta_.val().data();
  float* py = y.data();
  for (std::int64_t ch = 0; ch < c_; ++ch)
    inv_std[ch] = 1.f / std::sqrt(var[ch] + eps_);

  Tensor xhat = Tensor::empty(xv.shape());
  {
    float* ph = xhat.data();
    parallel_for(b * c_, [&](std::int64_t plane) {
      const std::int64_t ch = plane % c_;
      const float mu = mean[ch], is = inv_std[ch], ga = pg[ch], be = pb[ch];
      const float* xp = px + plane * h * w;
      float* yp = py + plane * h * w;
      float* hp = ph + plane * h * w;
      for (std::int64_t j = 0; j < h * w; ++j) {
        hp[j] = (xp[j] - mu) * is;
        yp[j] = hp[j] * ga + be;
      }
    });
  }

  auto xn = x.node();
  auto gn = gamma_.node();
  auto bn = beta_.node();
  const std::int64_t c = c_;
  return ag::make_op(
      y, {x, gamma_, beta_},
      [xn, gn, bn, xhat, inv_std, b, c, h, w, m, train](ag::Node& n) {
        const float* pdy = n.grad.data();
        const float* ph = xhat.data();
        // Per-channel sums of dy and dy * xhat.
        std::vector<double> s_dy(static_cast<std::size_t>(c), 0.0);
        std::vector<double> s_dyh(static_cast<std::size_t>(c), 0.0);
        for (std::int64_t i = 0; i < b; ++i) {
          for (std::int64_t ch = 0; ch < c; ++ch) {
            const float* dp = pdy + (i * c + ch) * h * w;
            const float* hp = ph + (i * c + ch) * h * w;
            double a0 = 0.0, a1 = 0.0;
            for (std::int64_t j = 0; j < h * w; ++j) {
              a0 += dp[j];
              a1 += static_cast<double>(dp[j]) * hp[j];
            }
            s_dy[static_cast<std::size_t>(ch)] += a0;
            s_dyh[static_cast<std::size_t>(ch)] += a1;
          }
        }
        if (gn->requires_grad) {
          Tensor& dg = gn->ensure_grad();
          for (std::int64_t ch = 0; ch < c; ++ch)
            dg[ch] += static_cast<float>(s_dyh[static_cast<std::size_t>(ch)]);
        }
        if (bn->requires_grad) {
          Tensor& db = bn->ensure_grad();
          for (std::int64_t ch = 0; ch < c; ++ch)
            db[ch] += static_cast<float>(s_dy[static_cast<std::size_t>(ch)]);
        }
        if (xn->requires_grad) {
          Tensor& dx = xn->ensure_grad();
          float* pdx = dx.data();
          const float* pg = gn->value.data();
          parallel_for(b * c, [&](std::int64_t plane) {
            const std::int64_t ch = plane % c;
            const float is = inv_std[ch], ga = pg[ch];
            const float mdy = static_cast<float>(
                s_dy[static_cast<std::size_t>(ch)] / m);
            const float mdyh = static_cast<float>(
                s_dyh[static_cast<std::size_t>(ch)] / m);
            const float* dp = pdy + plane * h * w;
            const float* hp = ph + plane * h * w;
            float* gp = pdx + plane * h * w;
            if (train) {
              for (std::int64_t j = 0; j < h * w; ++j)
                gp[j] += ga * is * (dp[j] - mdy - hp[j] * mdyh);
            } else {
              // Eval mode: running stats are constants.
              for (std::int64_t j = 0; j < h * w; ++j) gp[j] += ga * is * dp[j];
            }
          });
        }
      },
      "batchnorm2d");
}

}  // namespace apf::nn
