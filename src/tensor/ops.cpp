#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/gemm.h"
#include "core/parallel_for.h"

namespace apf::ops {
namespace {

// Shared implementation for elementwise binary ops.
template <class F>
Tensor binary_op(const Tensor& a, const Tensor& b, F&& f, const char* name) {
  APF_CHECK(a.same_shape(b),
            name << ": shape mismatch " << a.str() << " vs " << b.str());
  Tensor out = Tensor::empty(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  parallel_for(a.numel(), [&](std::int64_t i) { po[i] = f(pa[i], pb[i]); },
               /*grain=*/4096);
  return out;
}

template <class F>
Tensor unary_op(const Tensor& a, F&& f) {
  Tensor out = Tensor::empty(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  parallel_for(a.numel(), [&](std::int64_t i) { po[i] = f(pa[i]); },
               /*grain=*/4096);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; }, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; }, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; }, "mul");
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x / y; }, "div");
}

void axpy(Tensor& a, float alpha, const Tensor& b) {
  APF_CHECK(a.same_shape(b),
            "axpy: shape mismatch " << a.str() << " vs " << b.str());
  float* pa = a.data();
  const float* pb = b.data();
  parallel_for(a.numel(), [&](std::int64_t i) { pa[i] += alpha * pb[i]; },
               /*grain=*/4096);
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x * s; });
}
Tensor relu(const Tensor& a) {
  return unary_op(a, [](float x) { return x > 0.f ? x : 0.f; });
}

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

// ---- 4-lane vector helpers for the row kernels ----------------------------
// 16-byte GCC/Clang vector types compile to packed SSE on the x86-64
// baseline. Plain scalar loops do not vectorize here: the selects below
// are float compares, which -ftrapping-math keeps the compiler from
// if-converting, and 32-byte vectors lower to scalar code without AVX.
// Full blocks load and store through memcpy; a row's partial last block
// goes through a padded copy, so every element takes the same lane
// arithmetic.
constexpr std::int64_t kLanes = 4;
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));

constexpr float kInf = std::numeric_limits<float>::infinity();

[[gnu::always_inline]] inline F4 splat(float v) { return F4{v, v, v, v}; }

// Lanes [0, len) of p (len <= kLanes); the rest are `fill`.
[[gnu::always_inline]] inline F4 load(const float* p, std::int64_t len,
                                      float fill) {
  F4 v = splat(fill);
  if (len == kLanes) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::int64_t t = 0; t < len; ++t) v[t] = p[t];
  }
  return v;
}

// Stores lanes [0, len) of v (len <= kLanes) to p.
[[gnu::always_inline]] inline void store(float* p, F4 v, std::int64_t len) {
  if (len == kLanes) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::int64_t t = 0; t < len; ++t) p[t] = v[t];
  }
}

// Calls f(j, len) for the blocks [j, j + len) of [0, n): whole blocks in
// one loop, then the partial last one (len < kLanes) if any.
template <class F>
[[gnu::always_inline]] inline void for_each_block(std::int64_t n, F&& f) {
  std::int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) f(j, kLanes);
  if (j < n) f(j, n - j);
}

// Per lane: m ? a : b, for a compare result m (all ones or all zeros).
[[gnu::always_inline]] inline F4 select(I4 m, F4 a, F4 b) {
  return reinterpret_cast<F4>((reinterpret_cast<I4>(a) & m) |
                              (reinterpret_cast<I4>(b) & ~m));
}

// exp per lane, after Cephes' expf: x = n ln2 + r with n rounded to
// nearest (ln2 split in two so n * ln2 is exact), e^r by a degree-5
// polynomial, 2^n built in the exponent bits. n is read from the mantissa
// of the rounding sum, so no float -> int conversion runs. The argument is
// clamped to [kExpLo, kExpTop], keeping 2^n's biased exponent in [1, 255]:
// above 127.5 ln2 = 88.376 it is 255 (+inf), and lanes below kExpLo
// (including -inf) are masked to exactly 0. NaN passes both clamps and
// comes out NaN.
[[gnu::always_inline]] inline F4 exp4(F4 x) {
  constexpr float kExpLo = -87.3365447505531f;  // ln(FLT_MIN): n = -126
  constexpr float kExpTop = 89.f;               // n = 128
  constexpr float kLog2e = 1.44269504088896341f;
  // 1.5 * 2^23: the sum's low mantissa bits hold the rounded integer.
  constexpr float kRound = 12582912.f;
  const F4 lo = splat(kExpLo), top = splat(kExpTop);
  F4 xc = select(x < lo, lo, x);
  xc = select(xc > top, top, xc);
  const F4 rounded = xc * splat(kLog2e) + splat(kRound);
  const F4 n = rounded - splat(kRound);
  F4 r = xc - n * splat(0.693359375f);
  r = r - n * splat(-2.12194440e-4f);
  F4 p = splat(1.9875691500e-4f);
  p = p * r + splat(1.3981999507e-3f);
  p = p * r + splat(8.3334519073e-3f);
  p = p * r + splat(4.1665795894e-2f);
  p = p * r + splat(1.6666665459e-1f);
  p = p * r + splat(5.0000001201e-1f);
  const F4 er = p * (r * r) + r + splat(1.f);
  const U4 bits = (reinterpret_cast<U4>(rounded) << 23) + (127u << 23);
  const F4 e = er * reinterpret_cast<F4>(bits);
  return reinterpret_cast<F4>(reinterpret_cast<I4>(e) & ~(x < lo));
}

}  // namespace

void softmax_row(const float* x, const float* mask, std::int64_t n,
                 float* y) {
  // Block [j, j + len) of the row; masked keys and the tail read as -inf.
  const auto scores = [&](std::int64_t j, std::int64_t len) {
    const F4 v = load(x + j, len, -kInf);
    if (mask == nullptr) return v;
    return select(load(mask + j, len, 1.f) == splat(0.f), splat(-kInf), v);
  };
  F4 lane_max = splat(-kInf);
  for_each_block(n, [&](std::int64_t j, std::int64_t len) {
    const F4 v = scores(j, len);
    lane_max = select(v > lane_max, v, lane_max);  // NaN never wins
  });
  const float mx = std::max(std::max(lane_max[0], lane_max[1]),
                            std::max(lane_max[2], lane_max[3]));
  if (mx == -kInf) {
    // Fully masked row: all-zero output (no probability mass).
    std::fill(y, y + n, 0.f);
    return;
  }
  F4 lane_sum = splat(0.f);
  for_each_block(n, [&](std::int64_t j, std::int64_t len) {
    const F4 e = exp4(scores(j, len) - splat(mx));
    store(y + j, e, len);
    lane_sum += e;
  });
  const float denom =
      (lane_sum[0] + lane_sum[1]) + (lane_sum[2] + lane_sum[3]);
  if (denom == 0.f) {
    // Defensive: no surviving probability mass. Emit zeros instead of
    // dividing by zero — NaN here would poison the whole sequence through
    // the attention matmul.
    std::fill(y, y + n, 0.f);
    return;
  }
  const F4 inv = splat(1.f / denom);
  for_each_block(n, [&](std::int64_t j, std::int64_t len) {
    store(y + j, load(y + j, len, 0.f) * inv, len);
  });
}

void gelu_row(const float* x, std::int64_t n, float* y) {
  // -2 sqrt(2/pi): scaling by -2 is exact, so c * (...) is -2u bitwise.
  const F4 c = splat(-2.f * kGeluC);
  for_each_block(n, [&](std::int64_t j, std::int64_t len) {
    const F4 v = load(x + j, len, 0.f);
    const F4 t = exp4(c * (v + splat(0.044715f) * v * v * v));
    store(y + j, v / (splat(1.f) + t), len);
  });
}

void conv_epilogue_row(float* y, std::int64_t n, const float* bias,
                       const BnChannel* bn) {
  const F4 b = splat(bias != nullptr ? *bias : 0.f);
  const BnChannel c = bn != nullptr ? *bn : BnChannel{0.f, 1.f, 1.f, 0.f};
  const F4 mu = splat(c.mean), is = splat(c.inv_std), ga = splat(c.gamma),
           be = splat(c.beta);
  const F4 zero = splat(0.f);
  for_each_block(n, [&](std::int64_t j, std::int64_t len) {
    F4 v = load(y + j, len, 0.f);
    if (bias != nullptr) v += b;
    if (bn != nullptr) {
      v = (v - mu) * is * ga + be;
      v = select(v > zero, v, zero);
    }
    store(y + j, v, len);
  });
}

Tensor gelu(const Tensor& a) {
  constexpr std::int64_t kChunk = 4096;
  Tensor out = Tensor::empty(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  parallel_for((n + kChunk - 1) / kChunk, [&](std::int64_t c) {
    const std::int64_t j0 = c * kChunk;
    gelu_row(pa + j0, std::min(kChunk, n - j0), po + j0);
  }, /*grain=*/2);
  return out;
}

Tensor gelu_grad(const Tensor& a) {
  return unary_op(a, [](float x) {
    const float x3 = x * x * x;
    const float t = std::tanh(kGeluC * (x + 0.044715f * x3));
    const float dt = (1.f - t * t) * kGeluC * (1.f + 3.f * 0.044715f * x * x);
    return 0.5f * (1.f + t) + 0.5f * x * dt;
  });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(a, [](float x) { return 1.f / (1.f + std::exp(-x)); });
}
Tensor tanh(const Tensor& a) {
  return unary_op(a, [](float x) { return std::tanh(x); });
}
Tensor clamp(const Tensor& a, float lo, float hi) {
  return unary_op(a, [lo, hi](float x) { return std::min(hi, std::max(lo, x)); });
}

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  APF_CHECK(bias.ndim() == 1, "add_bias: bias must be 1-D, got " << bias.str());
  const std::int64_t d = bias.numel();
  APF_CHECK(x.ndim() >= 1 && x.size(-1) == d,
            "add_bias: " << x.str() << " vs bias " << bias.str());
  Tensor out = Tensor::empty(x.shape());
  const std::int64_t rows = x.numel() / d;
  const float* px = x.data();
  const float* pb = bias.data();
  float* po = out.data();
  parallel_for(rows, [&](std::int64_t r) {
    const float* xr = px + r * d;
    float* orow = po + r * d;
    for (std::int64_t j = 0; j < d; ++j) orow[j] = xr[j] + pb[j];
  });
  return out;
}

Tensor sum_to_lastdim(const Tensor& x) {
  APF_CHECK(x.ndim() >= 1, "sum_to_lastdim: scalar input");
  const std::int64_t d = x.size(-1);
  const std::int64_t rows = x.numel() / d;
  Tensor out = Tensor::empty({d});
  float* po = out.data();
  const float* px = x.data();
  // Deterministic fixed-order accumulation per output column.
  parallel_for(d, [&](std::int64_t j) {
    double acc = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) acc += px[r * d + j];
    po[j] = static_cast<float>(acc);
  }, /*grain=*/8);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  APF_CHECK(a.ndim() == 2 && b.ndim() == 2,
            "matmul: need 2-D, got " << a.str() << " @ " << b.str());
  const std::int64_t m = trans_a ? a.size(1) : a.size(0);
  const std::int64_t ka = trans_a ? a.size(0) : a.size(1);
  const std::int64_t kb = trans_b ? b.size(1) : b.size(0);
  const std::int64_t n = trans_b ? b.size(0) : b.size(1);
  APF_CHECK(ka == kb, "matmul: inner dims " << ka << " vs " << kb);
  Tensor c = Tensor::empty({m, n});
  gemm(trans_a, trans_b, m, n, ka, 1.f, a.data(), a.size(1), b.data(),
       b.size(1), 0.f, c.data(), n);
  return c;
}

Tensor bmm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  APF_CHECK(a.ndim() == 3 && b.ndim() == 3,
            "bmm: need 3-D, got " << a.str() << " @ " << b.str());
  APF_CHECK(a.size(0) == b.size(0), "bmm: batch mismatch");
  const std::int64_t bs = a.size(0);
  const std::int64_t m = trans_a ? a.size(2) : a.size(1);
  const std::int64_t ka = trans_a ? a.size(1) : a.size(2);
  const std::int64_t kb = trans_b ? b.size(2) : b.size(1);
  const std::int64_t n = trans_b ? b.size(1) : b.size(2);
  APF_CHECK(ka == kb, "bmm: inner dims " << ka << " vs " << kb);
  Tensor c = Tensor::empty({bs, m, n});
  const std::int64_t sa = a.size(1) * a.size(2);
  const std::int64_t sb = b.size(1) * b.size(2);
  const std::int64_t sc = m * n;
  // Parallelism lives inside gemm; batches run serially to avoid nesting.
  for (std::int64_t i = 0; i < bs; ++i) {
    gemm(trans_a, trans_b, m, n, ka, 1.f, a.data() + i * sa, a.size(2),
         b.data() + i * sb, b.size(2), 0.f, c.data() + i * sc, n);
  }
  return c;
}

Tensor permute(const Tensor& x, const std::vector<int>& perm) {
  const std::int64_t nd = x.ndim();
  APF_CHECK(static_cast<std::int64_t>(perm.size()) == nd,
            "permute: perm size " << perm.size() << " vs rank " << nd);
  Shape out_shape(perm.size());
  std::vector<std::int64_t> in_strides(perm.size()), out_strides(perm.size());
  std::int64_t stride = 1;
  for (std::int64_t i = nd - 1; i >= 0; --i) {
    in_strides[static_cast<std::size_t>(i)] = stride;
    stride *= x.size(i);
  }
  for (std::int64_t i = 0; i < nd; ++i)
    out_shape[static_cast<std::size_t>(i)] = x.size(perm[static_cast<std::size_t>(i)]);
  stride = 1;
  for (std::int64_t i = nd - 1; i >= 0; --i) {
    out_strides[static_cast<std::size_t>(i)] = stride;
    stride *= out_shape[static_cast<std::size_t>(i)];
  }
  Tensor out = Tensor::empty(out_shape);
  const float* px = x.data();
  float* po = out.data();
  parallel_for(out.numel(), [&](std::int64_t flat) {
    std::int64_t rem = flat;
    std::int64_t src = 0;
    for (std::int64_t d = 0; d < nd; ++d) {
      const std::int64_t ix = rem / out_strides[static_cast<std::size_t>(d)];
      rem %= out_strides[static_cast<std::size_t>(d)];
      src += ix * in_strides[static_cast<std::size_t>(perm[static_cast<std::size_t>(d)])];
    }
    po[flat] = px[src];
  }, /*grain=*/4096);
  return out;
}

Tensor transpose_last2(const Tensor& x) {
  if (x.ndim() == 2) return permute(x, {1, 0});
  APF_CHECK(x.ndim() == 3, "transpose_last2: need 2-D or 3-D, got " << x.str());
  return permute(x, {0, 2, 1});
}

Tensor concat(const std::vector<Tensor>& xs, std::int64_t axis) {
  APF_CHECK(!xs.empty(), "concat: empty input list");
  const std::int64_t nd = xs[0].ndim();
  if (axis < 0) axis += nd;
  APF_CHECK(axis >= 0 && axis < nd, "concat: bad axis");
  Shape out_shape = xs[0].shape();
  std::int64_t total = 0;
  for (const Tensor& t : xs) {
    APF_CHECK(t.ndim() == nd, "concat: rank mismatch");
    for (std::int64_t d = 0; d < nd; ++d) {
      if (d != axis)
        APF_CHECK(t.size(d) == xs[0].size(d),
                  "concat: dim " << d << " mismatch");
    }
    total += t.size(axis);
  }
  out_shape[static_cast<std::size_t>(axis)] = total;
  Tensor out = Tensor::empty(out_shape);

  // outer = product of dims before axis, inner = product after.
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t d = 0; d < axis; ++d) outer *= xs[0].size(d);
  for (std::int64_t d = axis + 1; d < nd; ++d) inner *= xs[0].size(d);

  std::int64_t off = 0;
  for (const Tensor& t : xs) {
    const std::int64_t ax = t.size(axis);
    const float* pt = t.data();
    float* po = out.data();
    parallel_for(outer, [&](std::int64_t o) {
      std::memcpy(po + (o * total + off) * inner, pt + o * ax * inner,
                  sizeof(float) * static_cast<std::size_t>(ax * inner));
    });
    off += ax;
  }
  return out;
}

Tensor slice(const Tensor& x, std::int64_t axis, std::int64_t start,
             std::int64_t len) {
  const std::int64_t nd = x.ndim();
  if (axis < 0) axis += nd;
  APF_CHECK(axis >= 0 && axis < nd, "slice: bad axis");
  APF_CHECK(start >= 0 && len >= 0 && start + len <= x.size(axis),
            "slice: [" << start << ", " << start + len << ") out of range for "
                       << x.str() << " axis " << axis);
  Shape out_shape = x.shape();
  out_shape[static_cast<std::size_t>(axis)] = len;
  Tensor out = Tensor::empty(out_shape);
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t d = 0; d < axis; ++d) outer *= x.size(d);
  for (std::int64_t d = axis + 1; d < nd; ++d) inner *= x.size(d);
  const std::int64_t ax = x.size(axis);
  const float* px = x.data();
  float* po = out.data();
  parallel_for(outer, [&](std::int64_t o) {
    std::memcpy(po + o * len * inner, px + (o * ax + start) * inner,
                sizeof(float) * static_cast<std::size_t>(len * inner));
  });
  return out;
}

float sum_all(const Tensor& a) {
  // Deterministic: serial Kahan-style double accumulation.
  double acc = 0.0;
  const float* p = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += p[i];
  return static_cast<float>(acc);
}

float mean_all(const Tensor& a) {
  APF_CHECK(a.numel() > 0, "mean_all: empty tensor");
  return sum_all(a) / static_cast<float>(a.numel());
}

std::vector<std::int64_t> argmax_lastdim(const Tensor& x) {
  APF_CHECK(x.ndim() >= 1, "argmax_lastdim: scalar input");
  const std::int64_t d = x.size(-1);
  const std::int64_t rows = x.numel() / d;
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const float* px = x.data();
  parallel_for(rows, [&](std::int64_t r) {
    const float* row = px + r * d;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < d; ++j)
      if (row[j] > row[best]) best = j;
    out[static_cast<std::size_t>(r)] = best;
  });
  return out;
}

Tensor softmax_lastdim(const Tensor& x, const Tensor* key_mask) {
  APF_CHECK(x.ndim() >= 1, "softmax: scalar input");
  const std::int64_t n = x.size(-1);
  const std::int64_t rows = x.numel() / n;
  std::int64_t rows_per_b = 1;
  const float* pm = nullptr;
  if (key_mask != nullptr) {
    APF_CHECK(key_mask->ndim() == 2 && key_mask->size(1) == n,
              "softmax: key_mask " << key_mask->str() << " vs lastdim " << n);
    const std::int64_t b = key_mask->size(0);
    APF_CHECK(rows % b == 0, "softmax: rows " << rows
                                              << " not divisible by batch " << b);
    rows_per_b = rows / b;
    pm = key_mask->data();
  }
  Tensor out = Tensor::empty(x.shape());
  const float* px = x.data();
  float* po = out.data();
  parallel_for(rows, [&](std::int64_t r) {
    softmax_row(px + r * n, pm ? pm + (r / rows_per_b) * n : nullptr, n,
                po + r * n);
  });
  return out;
}

Tensor softmax_lastdim_grad(const Tensor& y, const Tensor& dy) {
  APF_CHECK(y.same_shape(dy), "softmax_grad: shape mismatch");
  const std::int64_t n = y.size(-1);
  const std::int64_t rows = y.numel() / n;
  Tensor dx(y.shape());
  const float* py = y.data();
  const float* pdy = dy.data();
  float* pdx = dx.data();
  parallel_for(rows, [&](std::int64_t r) {
    const float* yr = py + r * n;
    const float* dyr = pdy + r * n;
    float* dxr = pdx + r * n;
    double dot = 0.0;
    for (std::int64_t j = 0; j < n; ++j) dot += static_cast<double>(yr[j]) * dyr[j];
    const float d = static_cast<float>(dot);
    for (std::int64_t j = 0; j < n; ++j) dxr[j] = yr[j] * (dyr[j] - d);
  });
  return dx;
}

void layernorm_row(const float* x, const float* gamma, const float* beta,
                   float eps, std::int64_t d, float* y, float* xhat,
                   float* inv_std) {
  double mu = 0.0;
  for (std::int64_t j = 0; j < d; ++j) mu += x[j];
  mu /= d;
  double var = 0.0;
  for (std::int64_t j = 0; j < d; ++j) {
    const double c = x[j] - mu;
    var += c * c;
  }
  var /= d;
  const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
  if (inv_std) *inv_std = is;
  for (std::int64_t j = 0; j < d; ++j) {
    const float h = (x[j] - static_cast<float>(mu)) * is;
    if (xhat) xhat[j] = h;
    y[j] = h * gamma[j] + beta[j];
  }
}

void im2col_into(const float* x, std::int64_t c, std::int64_t h,
                 std::int64_t w, std::int64_t kh, std::int64_t kw,
                 std::int64_t stride, std::int64_t pad, float* out,
                 std::int64_t ldo, std::int64_t oi0, std::int64_t oi1) {
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  APF_CHECK(oh > 0 && ow > 0, "im2col: kernel larger than padded input");
  APF_CHECK(0 <= oi0 && oi0 <= oi1 && oi1 <= oh,
            "im2col_into: output rows [" << oi0 << ", " << oi1
                                         << ") out of bounds");
  APF_CHECK(ldo >= (oi1 - oi0) * ow,
            "im2col_into: row stride " << ldo << " below the band width");
  for (std::int64_t row = 0; row < c * kh * kw; ++row) {
    const std::int64_t ch = row / (kh * kw);
    const std::int64_t ki = (row / kw) % kh;
    const std::int64_t kj = row % kw;
    float* crow = out + row * ldo;
    for (std::int64_t oi = oi0; oi < oi1; ++oi) {
      const std::int64_t ii = oi * stride + ki - pad;
      float* dst = crow + (oi - oi0) * ow;
      if (ii < 0 || ii >= h) {
        std::fill(dst, dst + ow, 0.f);
        continue;
      }
      const float* src = x + (ch * h + ii) * w;
      if (stride == 1) {
        // Contiguous interior: jj = oj + kj - pad walks the source row
        // unit-stride, so the in-bounds span is one memcpy and only the
        // padding fringe is written element-free (zeros).
        const std::int64_t j0 =
            std::clamp<std::int64_t>(pad - kj, 0, ow);
        const std::int64_t j1 =
            std::clamp<std::int64_t>(w + pad - kj, j0, ow);
        std::fill(dst, dst + j0, 0.f);
        if (j1 > j0)
          std::memcpy(dst + j0, src + j0 + kj - pad,
                      static_cast<std::size_t>(j1 - j0) * sizeof(float));
        std::fill(dst + j1, dst + ow, 0.f);
      } else {
        for (std::int64_t oj = 0; oj < ow; ++oj) {
          const std::int64_t jj = oj * stride + kj - pad;
          dst[oj] = (jj >= 0 && jj < w) ? src[jj] : 0.f;
        }
      }
    }
  }
}

Tensor im2col(const Tensor& x, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad) {
  APF_CHECK(x.ndim() == 3, "im2col: need [C,H,W], got " << x.str());
  const std::int64_t c = x.size(0), h = x.size(1), w = x.size(2);
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  APF_CHECK(oh > 0 && ow > 0, "im2col: kernel larger than padded input");
  Tensor cols = Tensor::empty({c * kh * kw, oh * ow});
  const float* px = x.data();
  float* pc = cols.data();
  // One band per output row: each task writes its own ow-wide column
  // span of every row, so there are no races.
  parallel_for(oh, [&](std::int64_t oi) {
    im2col_into(px, c, h, w, kh, kw, stride, pad, pc + oi * ow, oh * ow, oi,
                oi + 1);
  }, /*grain=*/1);
  return cols;
}

namespace {

// Raw-pointer col2im for channels [c0, c1) of the output: zeroes each
// channel plane of out ([C, H, W]) then scatter-adds its rows of cols.
void col2im_into(const float* cols, std::int64_t c, std::int64_t h,
                 std::int64_t w, std::int64_t kh, std::int64_t kw,
                 std::int64_t stride, std::int64_t pad, float* out,
                 std::int64_t c0, std::int64_t c1) {
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  APF_CHECK(0 <= c0 && c0 <= c1 && c1 <= c,
            "col2im_into: channel range [" << c0 << ", " << c1
                                           << ") out of bounds");
  for (std::int64_t ch = c0; ch < c1; ++ch) {
    float* plane = out + ch * h * w;
    std::memset(plane, 0, static_cast<std::size_t>(h * w) * sizeof(float));
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const std::int64_t row = (ch * kh + ki) * kw + kj;
        const float* crow = cols + row * oh * ow;
        // Hoist the bounds: the in-range output indices form a contiguous
        // oi / oj interval, so the inner loops run branch-free.
        const std::int64_t oi0 =
            ki < pad ? (pad - ki + stride - 1) / stride : 0;
        const std::int64_t oi1 =
            std::min(oh, h - 1 - ki + pad >= 0
                             ? (h - 1 - ki + pad) / stride + 1
                             : 0);
        const std::int64_t oj0 =
            kj < pad ? (pad - kj + stride - 1) / stride : 0;
        const std::int64_t oj1 =
            std::min(ow, w - 1 - kj + pad >= 0
                             ? (w - 1 - kj + pad) / stride + 1
                             : 0);
        for (std::int64_t oi = oi0; oi < oi1; ++oi) {
          // Index from the row base (never pre-bias the pointer by
          // kj - pad: that would form an out-of-bounds pointer when
          // kj < pad, UB even if no biased element is dereferenced).
          float* dst = plane + (oi * stride + ki - pad) * w;
          const float* src = crow + oi * ow;
          for (std::int64_t oj = oj0; oj < oj1; ++oj)
            dst[oj * stride + kj - pad] += src[oj];
        }
      }
    }
  }
}

}  // namespace

Tensor col2im(const Tensor& cols, std::int64_t c, std::int64_t h,
              std::int64_t w, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad) {
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  APF_CHECK(cols.ndim() == 2 && cols.size(0) == c * kh * kw &&
                cols.size(1) == oh * ow,
            "col2im: cols " << cols.str() << " inconsistent with geometry");
  Tensor x = Tensor::empty({c, h, w});
  const float* pc = cols.data();
  float* px = x.data();
  // Parallel over channels: rows of `cols` for one channel only touch that
  // channel's plane, so there are no races.
  parallel_for(c, [&](std::int64_t ch) {
    col2im_into(pc, c, h, w, kh, kw, stride, pad, px, ch, ch + 1);
  }, /*grain=*/1);
  return x;
}

}  // namespace apf::ops
