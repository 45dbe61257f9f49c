#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tensor/ops.h"
#include "core/parallel_for.h"

namespace apf::ag {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool GradMode::is_enabled() { return g_grad_enabled; }
void GradMode::set_enabled(bool enabled) { g_grad_enabled = enabled; }

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

EnableGradGuard::EnableGradGuard() : prev_(g_grad_enabled) {
  g_grad_enabled = true;
}
EnableGradGuard::~EnableGradGuard() { g_grad_enabled = prev_; }

Tensor& Node::ensure_grad() {
  if (!grad.defined()) grad = Tensor::zeros(value.shape());
  return grad;
}

Var::Var(Tensor value, bool requires_grad)
    : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Var Var::wrap(std::shared_ptr<Node> n) {
  Var v;
  v.node_ = std::move(n);
  return v;
}

void Var::zero_grad() {
  if (node_ && node_->grad.defined()) node_->grad.fill(0.f);
}

void Var::backward() const {
  backward(Tensor::ones(node_->value.shape()));
}

void Var::backward(const Tensor& seed_grad) const {
  APF_CHECK(defined(), "backward() on undefined Var");
  APF_CHECK(seed_grad.same_shape(node_->value),
            "backward(): seed " << seed_grad.str() << " vs value "
                                << node_->value.str());
  // Iterative post-order DFS to topologically sort the subgraph that
  // requires grad, then sweep in reverse.
  std::vector<Node*> order;
  // determinism-ok(unordered): membership-only visited set (count/insert);
  // the traversal order that builds `order` comes from the deterministic
  // parent lists on the stack, never from hash iteration.
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  if (node_->requires_grad) stack.emplace_back(node_.get(), 0);
  while (!stack.empty()) {
    auto& [n, child] = stack.back();
    if (child == 0 && visited.count(n)) {
      stack.pop_back();
      continue;
    }
    if (child < n->parents.size()) {
      Node* p = n->parents[child].get();
      ++child;
      if (p->requires_grad && !visited.count(p)) stack.emplace_back(p, 0);
    } else {
      visited.insert(n);
      order.push_back(n);
      stack.pop_back();
    }
  }
  ops::axpy(node_->ensure_grad(), 1.f, seed_grad);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn) n->backward_fn(*n);
  }
}

Var make_op(Tensor value, std::vector<Var> parents,
            std::function<void(Node&)> backward_fn, const char* name) {
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  n->op_name = name;
  bool needs = false;
  for (const Var& p : parents) needs = needs || p.requires_grad();
  if (g_grad_enabled && needs) {
    n->requires_grad = true;
    n->backward_fn = std::move(backward_fn);
    n->parents.reserve(parents.size());
    for (Var& p : parents) n->parents.push_back(p.node());
  }
  return Var::wrap(std::move(n));
}

// ---------------------------------------------------------------- arithmetic

Var add(const Var& a, const Var& b) {
  auto an = a.node();
  auto bn = b.node();
  return make_op(
      ops::add(a.val(), b.val()), {a, b},
      [an, bn](Node& n) {
        if (an->requires_grad) ops::axpy(an->ensure_grad(), 1.f, n.grad);
        if (bn->requires_grad) ops::axpy(bn->ensure_grad(), 1.f, n.grad);
      },
      "add");
}

Var sub(const Var& a, const Var& b) {
  auto an = a.node();
  auto bn = b.node();
  return make_op(
      ops::sub(a.val(), b.val()), {a, b},
      [an, bn](Node& n) {
        if (an->requires_grad) ops::axpy(an->ensure_grad(), 1.f, n.grad);
        if (bn->requires_grad) ops::axpy(bn->ensure_grad(), -1.f, n.grad);
      },
      "sub");
}

Var mul(const Var& a, const Var& b) {
  auto an = a.node();
  auto bn = b.node();
  return make_op(
      ops::mul(a.val(), b.val()), {a, b},
      [an, bn](Node& n) {
        if (an->requires_grad)
          ops::axpy(an->ensure_grad(), 1.f, ops::mul(n.grad, bn->value));
        if (bn->requires_grad)
          ops::axpy(bn->ensure_grad(), 1.f, ops::mul(n.grad, an->value));
      },
      "mul");
}

Var scale(const Var& a, float s) {
  auto an = a.node();
  return make_op(
      ops::mul_scalar(a.val(), s), {a},
      [an, s](Node& n) { ops::axpy(an->ensure_grad(), s, n.grad); }, "scale");
}

Var add_scalar(const Var& a, float s) {
  auto an = a.node();
  return make_op(
      ops::add_scalar(a.val(), s), {a},
      [an](Node& n) { ops::axpy(an->ensure_grad(), 1.f, n.grad); },
      "add_scalar");
}

Var add_bias(const Var& x, const Var& bias) {
  auto xn = x.node();
  auto bn = bias.node();
  return make_op(
      ops::add_bias(x.val(), bias.val()), {x, bias},
      [xn, bn](Node& n) {
        if (xn->requires_grad) ops::axpy(xn->ensure_grad(), 1.f, n.grad);
        if (bn->requires_grad)
          ops::axpy(bn->ensure_grad(), 1.f, ops::sum_to_lastdim(n.grad));
      },
      "add_bias");
}

Var mul_mask(const Var& x, const Tensor& mask) {
  auto xn = x.node();
  return make_op(
      ops::mul(x.val(), mask), {x},
      [xn, mask](Node& n) {
        ops::axpy(xn->ensure_grad(), 1.f, ops::mul(n.grad, mask));
      },
      "mul_mask");
}

// ------------------------------------------------------------ linear algebra

Var matmul(const Var& a, const Var& b, bool trans_a, bool trans_b) {
  auto an = a.node();
  auto bn = b.node();
  return make_op(
      ops::matmul(a.val(), b.val(), trans_a, trans_b), {a, b},
      [an, bn, trans_a, trans_b](Node& n) {
        // C = op(A) @ op(B). With P = op(A), Q = op(B):
        //   dP = dC @ Q^T,  dQ = P^T @ dC.
        if (an->requires_grad) {
          Tensor dp = trans_b ? ops::matmul(n.grad, bn->value, false, false)
                              : ops::matmul(n.grad, bn->value, false, true);
          ops::axpy(an->ensure_grad(), 1.f,
                    trans_a ? ops::transpose_last2(dp) : dp);
        }
        if (bn->requires_grad) {
          Tensor dq = trans_a ? ops::matmul(an->value, n.grad, false, false)
                              : ops::matmul(an->value, n.grad, true, false);
          ops::axpy(bn->ensure_grad(), 1.f,
                    trans_b ? ops::transpose_last2(dq) : dq);
        }
      },
      "matmul");
}

Var bmm(const Var& a, const Var& b, bool trans_a, bool trans_b) {
  auto an = a.node();
  auto bn = b.node();
  return make_op(
      ops::bmm(a.val(), b.val(), trans_a, trans_b), {a, b},
      [an, bn, trans_a, trans_b](Node& n) {
        if (an->requires_grad) {
          Tensor dp = trans_b ? ops::bmm(n.grad, bn->value, false, false)
                              : ops::bmm(n.grad, bn->value, false, true);
          ops::axpy(an->ensure_grad(), 1.f,
                    trans_a ? ops::transpose_last2(dp) : dp);
        }
        if (bn->requires_grad) {
          Tensor dq = trans_a ? ops::bmm(an->value, n.grad, false, false)
                              : ops::bmm(an->value, n.grad, true, false);
          ops::axpy(bn->ensure_grad(), 1.f,
                    trans_b ? ops::transpose_last2(dq) : dq);
        }
      },
      "bmm");
}

// --------------------------------------------------------------- activations

Var relu(const Var& a) {
  auto an = a.node();
  return make_op(
      ops::relu(a.val()), {a},
      [an](Node& n) {
        Tensor& g = an->ensure_grad();
        const float* px = an->value.data();
        const float* pd = n.grad.data();
        float* pg = g.data();
        parallel_for(g.numel(), [&](std::int64_t i) {
          if (px[i] > 0.f) pg[i] += pd[i];
        }, 4096);
      },
      "relu");
}

Var gelu(const Var& a) {
  auto an = a.node();
  return make_op(
      ops::gelu(a.val()), {a},
      [an](Node& n) {
        ops::axpy(an->ensure_grad(), 1.f,
                  ops::mul(n.grad, ops::gelu_grad(an->value)));
      },
      "gelu");
}

Var sigmoid(const Var& a) {
  Tensor y = ops::sigmoid(a.val());
  auto an = a.node();
  return make_op(
      y, {a},
      [an, y](Node& n) {
        const float* py = y.data();
        const float* pd = n.grad.data();
        Tensor& g = an->ensure_grad();
        float* pg = g.data();
        parallel_for(g.numel(), [&](std::int64_t i) {
          pg[i] += pd[i] * py[i] * (1.f - py[i]);
        }, 4096);
      },
      "sigmoid");
}

Var tanh(const Var& a) {
  Tensor y = ops::tanh(a.val());
  auto an = a.node();
  return make_op(
      y, {a},
      [an, y](Node& n) {
        const float* py = y.data();
        const float* pd = n.grad.data();
        Tensor& g = an->ensure_grad();
        float* pg = g.data();
        parallel_for(g.numel(), [&](std::int64_t i) {
          pg[i] += pd[i] * (1.f - py[i] * py[i]);
        }, 4096);
      },
      "tanh");
}

// -------------------------------------------------------- layernorm / softmax

Var layernorm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  const Tensor& xv = x.val();
  const std::int64_t d = xv.size(-1);
  APF_CHECK(gamma.val().numel() == d && beta.val().numel() == d,
            "layernorm: affine params must be [" << d << "]");
  const std::int64_t rows = xv.numel() / d;

  // Normalized activations and inverse stddevs are only needed by the
  // backward closure; skip allocating them on the grad-free fast path.
  const bool save_for_backward =
      grad_enabled() && (x.requires_grad() || gamma.requires_grad() ||
                         beta.requires_grad());
  Tensor y(xv.shape());
  Tensor xhat, inv_std;
  if (save_for_backward) {
    xhat = Tensor(xv.shape());
    inv_std = Tensor({rows});
  }
  {
    const float* px = xv.data();
    const float* pg = gamma.val().data();
    const float* pb = beta.val().data();
    float* py = y.data();
    float* ph = save_for_backward ? xhat.data() : nullptr;
    float* pis = save_for_backward ? inv_std.data() : nullptr;
    // Row math lives in ops::layernorm_row so the mask-aware inference
    // path (nn::LayerNorm) can replicate it bitwise on a row subset.
    parallel_for(rows, [&](std::int64_t r) {
      ops::layernorm_row(px + r * d, pg, pb, eps, d, py + r * d,
                         ph ? ph + r * d : nullptr, pis ? pis + r : nullptr);
    });
  }

  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return make_op(
      y, {x, gamma, beta},
      [xn, gn, bn, xhat, inv_std, d, rows](Node& n) {
        const float* pdy = n.grad.data();
        const float* ph = xhat.data();
        const float* pis = inv_std.data();
        const float* pg = gn->value.data();
        if (gn->requires_grad || bn->requires_grad) {
          Tensor& dg = gn->ensure_grad();
          Tensor& db = bn->ensure_grad();
          float* pdg = dg.data();
          float* pdb = db.data();
          // Column-parallel accumulation keeps determinism.
          parallel_for(d, [&](std::int64_t j) {
            double ag = 0.0, ab = 0.0;
            for (std::int64_t r = 0; r < rows; ++r) {
              ag += static_cast<double>(pdy[r * d + j]) * ph[r * d + j];
              ab += pdy[r * d + j];
            }
            pdg[j] += static_cast<float>(ag);
            pdb[j] += static_cast<float>(ab);
          }, 8);
        }
        if (xn->requires_grad) {
          Tensor& dx = xn->ensure_grad();
          float* pdx = dx.data();
          parallel_for(rows, [&](std::int64_t r) {
            const float* dyr = pdy + r * d;
            const float* hr = ph + r * d;
            double m1 = 0.0, m2 = 0.0;  // mean(dxhat), mean(dxhat * xhat)
            for (std::int64_t j = 0; j < d; ++j) {
              const double dh = static_cast<double>(dyr[j]) * pg[j];
              m1 += dh;
              m2 += dh * hr[j];
            }
            m1 /= d;
            m2 /= d;
            const float is = pis[r];
            float* dxr = pdx + r * d;
            for (std::int64_t j = 0; j < d; ++j) {
              const float dh = dyr[j] * pg[j];
              dxr[j] += is * (dh - static_cast<float>(m1) -
                              hr[j] * static_cast<float>(m2));
            }
          });
        }
      },
      "layernorm");
}

Var softmax_lastdim(const Var& x, const Tensor* key_mask) {
  Tensor y = ops::softmax_lastdim(x.val(), key_mask);
  auto xn = x.node();
  return make_op(
      y, {x},
      [xn, y](Node& n) {
        ops::axpy(xn->ensure_grad(), 1.f,
                  ops::softmax_lastdim_grad(y, n.grad));
      },
      "softmax");
}

// -------------------------------------------------------------------- shape

Var reshape(const Var& a, Shape shape) {
  Tensor y = a.val().reshape(std::move(shape));
  auto an = a.node();
  return make_op(
      y, {a},
      [an](Node& n) {
        ops::axpy(an->ensure_grad(), 1.f,
                  n.grad.reshape(an->value.shape()));
      },
      "reshape");
}

Var permute(const Var& a, const std::vector<int>& perm) {
  auto an = a.node();
  std::vector<int> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
  return make_op(
      ops::permute(a.val(), perm), {a},
      [an, inv](Node& n) {
        ops::axpy(an->ensure_grad(), 1.f, ops::permute(n.grad, inv));
      },
      "permute");
}

Var concat(const std::vector<Var>& xs, std::int64_t axis) {
  APF_CHECK(!xs.empty(), "concat: empty list");
  std::vector<Tensor> vals;
  vals.reserve(xs.size());
  for (const Var& v : xs) vals.push_back(v.val());
  Tensor y = ops::concat(vals, axis);
  std::int64_t ax = axis < 0 ? axis + xs[0].val().ndim() : axis;
  std::vector<std::shared_ptr<Node>> nodes;
  std::vector<std::int64_t> sizes;
  for (const Var& v : xs) {
    nodes.push_back(v.node());
    sizes.push_back(v.val().size(ax));
  }
  return make_op(
      y, xs,
      [nodes, sizes, ax](Node& n) {
        std::int64_t off = 0;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          if (nodes[i]->requires_grad) {
            ops::axpy(nodes[i]->ensure_grad(), 1.f,
                      ops::slice(n.grad, ax, off, sizes[i]));
          }
          off += sizes[i];
        }
      },
      "concat");
}

Var slice(const Var& a, std::int64_t axis, std::int64_t start,
          std::int64_t len) {
  const std::int64_t nd = a.val().ndim();
  const std::int64_t ax = axis < 0 ? axis + nd : axis;
  auto an = a.node();
  return make_op(
      ops::slice(a.val(), ax, start, len), {a},
      [an, ax, start, len](Node& n) {
        // Scatter-add n.grad into the [start, start+len) band of parent grad.
        Tensor& g = an->ensure_grad();
        std::int64_t outer = 1, inner = 1;
        const std::int64_t nd2 = g.ndim();
        for (std::int64_t d = 0; d < ax; ++d) outer *= g.size(d);
        for (std::int64_t d = ax + 1; d < nd2; ++d) inner *= g.size(d);
        const std::int64_t axn = g.size(ax);
        float* pg = g.data();
        const float* pd = n.grad.data();
        parallel_for(outer, [&](std::int64_t o) {
          for (std::int64_t s = 0; s < len; ++s) {
            float* dst = pg + (o * axn + start + s) * inner;
            const float* src = pd + (o * len + s) * inner;
            for (std::int64_t j = 0; j < inner; ++j) dst[j] += src[j];
          }
        });
      },
      "slice");
}

// --------------------------------------------------------------- reductions

Var sum(const Var& a) {
  auto an = a.node();
  return make_op(
      Tensor::from({ops::sum_all(a.val())}, {1}), {a},
      [an](Node& n) {
        const float g = n.grad[0];
        Tensor& pg = an->ensure_grad();
        float* p = pg.data();
        parallel_for(pg.numel(), [&](std::int64_t i) { p[i] += g; }, 4096);
      },
      "sum");
}

Var mean(const Var& a) {
  const float inv = 1.f / static_cast<float>(a.val().numel());
  auto an = a.node();
  return make_op(
      Tensor::from({ops::mean_all(a.val())}, {1}), {a},
      [an, inv](Node& n) {
        const float g = n.grad[0] * inv;
        Tensor& pg = an->ensure_grad();
        float* p = pg.data();
        parallel_for(pg.numel(), [&](std::int64_t i) { p[i] += g; }, 4096);
      },
      "mean");
}

// ----------------------------------------------------------------- dropout

Var dropout(const Var& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.f) return a;
  APF_CHECK(p < 1.f, "dropout: p must be < 1, got " << p);
  Tensor mask(a.val().shape());
  const float keep = 1.f - p;
  const float scl = 1.f / keep;
  float* pm = mask.data();
  for (std::int64_t i = 0; i < mask.numel(); ++i)
    pm[i] = rng.bernoulli(keep) ? scl : 0.f;
  return mul_mask(a, mask);
}

// ------------------------------------------------------------------- losses

Var bce_with_logits_mean(const Var& logits, const Tensor& targets) {
  const Tensor& z = logits.val();
  APF_CHECK(z.same_shape(targets), "bce: logits " << z.str() << " vs targets "
                                                  << targets.str());
  const std::int64_t n = z.numel();
  const float* pz = z.data();
  const float* pt = targets.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    // Stable form: max(z,0) - z*t + log(1 + exp(-|z|)).
    const float zz = pz[i];
    acc += std::max(zz, 0.f) - zz * pt[i] + std::log1p(std::exp(-std::fabs(zz)));
  }
  const float loss = static_cast<float>(acc / n);
  auto ln = logits.node();
  return make_op(
      Tensor::from({loss}, {1}), {logits},
      [ln, targets, n](Node& node) {
        const float g = node.grad[0] / static_cast<float>(n);
        Tensor& dz = ln->ensure_grad();
        const float* pz2 = ln->value.data();
        const float* pt2 = targets.data();
        float* pd = dz.data();
        parallel_for(n, [&](std::int64_t i) {
          const float s = 1.f / (1.f + std::exp(-pz2[i]));
          pd[i] += g * (s - pt2[i]);
        }, 4096);
      },
      "bce_with_logits");
}

Var binary_dice_loss(const Var& logits, const Tensor& targets, float eps) {
  const Tensor& z = logits.val();
  APF_CHECK(z.same_shape(targets), "dice: shape mismatch");
  const std::int64_t n = z.numel();
  Tensor probs = ops::sigmoid(z);
  const float* pp = probs.data();
  const float* pt = targets.data();
  double inter = 0.0, psum = 0.0, tsum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    inter += static_cast<double>(pp[i]) * pt[i];
    psum += pp[i];
    tsum += pt[i];
  }
  const double denom = psum + tsum + eps;
  const double numer = 2.0 * inter + eps;
  const float loss = static_cast<float>(1.0 - numer / denom);
  auto ln = logits.node();
  return make_op(
      Tensor::from({loss}, {1}), {logits},
      [ln, targets, probs, numer, denom, n](Node& node) {
        // d(1 - numer/denom)/dp_i = -(2 t_i * denom - numer) / denom^2,
        // then chain through sigmoid: dp/dz = p (1 - p).
        const float g = node.grad[0];
        const float inv_d2 = static_cast<float>(1.0 / (denom * denom));
        const float num_f = static_cast<float>(numer);
        const float den_f = static_cast<float>(denom);
        Tensor& dz = ln->ensure_grad();
        const float* pp2 = probs.data();
        const float* pt2 = targets.data();
        float* pd = dz.data();
        parallel_for(n, [&](std::int64_t i) {
          const float dldp = -(2.f * pt2[i] * den_f - num_f) * inv_d2;
          pd[i] += g * dldp * pp2[i] * (1.f - pp2[i]);
        }, 4096);
      },
      "binary_dice");
}

Var combined_seg_loss(const Var& logits, const Tensor& targets, float w,
                      float eps) {
  Var bce = bce_with_logits_mean(logits, targets);
  Var dice = binary_dice_loss(logits, targets, eps);
  return add(scale(bce, w), scale(dice, 1.f - w));
}

Var cross_entropy_mean(const Var& logits,
                       const std::vector<std::int64_t>& labels) {
  const Tensor& z = logits.val();
  APF_CHECK(z.ndim() == 2, "cross_entropy: logits must be [R, C]");
  const std::int64_t r = z.size(0), c = z.size(1);
  APF_CHECK(static_cast<std::int64_t>(labels.size()) == r,
            "cross_entropy: " << labels.size() << " labels for " << r
                              << " rows");
  Tensor probs = ops::softmax_lastdim(z);
  const float* pp = probs.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < r; ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    APF_CHECK(y >= 0 && y < c, "cross_entropy: label " << y << " out of range");
    acc -= std::log(std::max(pp[i * c + y], 1e-12f));
  }
  const float loss = static_cast<float>(acc / r);
  auto ln = logits.node();
  return make_op(
      Tensor::from({loss}, {1}), {logits},
      [ln, probs, labels, r, c](Node& node) {
        const float g = node.grad[0] / static_cast<float>(r);
        Tensor& dz = ln->ensure_grad();
        const float* pp2 = probs.data();
        float* pd = dz.data();
        parallel_for(r, [&](std::int64_t i) {
          const std::int64_t y = labels[static_cast<std::size_t>(i)];
          for (std::int64_t j = 0; j < c; ++j) {
            pd[i * c + j] += g * (pp2[i * c + j] - (j == y ? 1.f : 0.f));
          }
        });
      },
      "cross_entropy");
}

Var multiclass_dice_loss(const Var& logits,
                         const std::vector<std::int64_t>& labels,
                         bool ignore_background, float eps) {
  const Tensor& z = logits.val();
  APF_CHECK(z.ndim() == 2, "mc_dice: logits must be [R, C]");
  const std::int64_t r = z.size(0), c = z.size(1);
  APF_CHECK(static_cast<std::int64_t>(labels.size()) == r,
            "mc_dice: label count mismatch");
  Tensor probs = ops::softmax_lastdim(z);
  const float* pp = probs.data();
  const std::int64_t c0 = ignore_background ? 1 : 0;

  std::vector<double> inter(static_cast<std::size_t>(c), 0.0);
  std::vector<double> psum(static_cast<std::size_t>(c), 0.0);
  std::vector<double> tsum(static_cast<std::size_t>(c), 0.0);
  for (std::int64_t i = 0; i < r; ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    tsum[static_cast<std::size_t>(y)] += 1.0;
    for (std::int64_t j = 0; j < c; ++j) {
      psum[static_cast<std::size_t>(j)] += pp[i * c + j];
      if (j == y) inter[static_cast<std::size_t>(j)] += pp[i * c + j];
    }
  }
  double loss_acc = 0.0;
  std::vector<double> numer(static_cast<std::size_t>(c)),
      denom(static_cast<std::size_t>(c));
  const std::int64_t n_classes = c - c0;
  for (std::int64_t j = c0; j < c; ++j) {
    numer[static_cast<std::size_t>(j)] = 2.0 * inter[static_cast<std::size_t>(j)] + eps;
    denom[static_cast<std::size_t>(j)] =
        psum[static_cast<std::size_t>(j)] + tsum[static_cast<std::size_t>(j)] + eps;
    loss_acc += 1.0 - numer[static_cast<std::size_t>(j)] / denom[static_cast<std::size_t>(j)];
  }
  const float loss = static_cast<float>(loss_acc / n_classes);

  auto ln = logits.node();
  return make_op(
      Tensor::from({loss}, {1}), {logits},
      [ln, probs, labels, numer, denom, r, c, c0, n_classes](Node& node) {
        // dL/dp_ij for class j: -(2 [y_i = j] denom_j - numer_j) / denom_j^2
        // averaged over counted classes; then chain through row softmax.
        const float g = node.grad[0] / static_cast<float>(n_classes);
        Tensor dldp({r, c});
        float* pl = dldp.data();
        parallel_for(r, [&](std::int64_t i) {
          const std::int64_t y = labels[static_cast<std::size_t>(i)];
          for (std::int64_t j = c0; j < c; ++j) {
            const double dj = denom[static_cast<std::size_t>(j)];
            const double nj = numer[static_cast<std::size_t>(j)];
            const double t = (j == y) ? 1.0 : 0.0;
            pl[i * c + j] =
                static_cast<float>(-(2.0 * t * dj - nj) / (dj * dj)) * g;
          }
        });
        ops::axpy(ln->ensure_grad(), 1.f,
                  ops::softmax_lastdim_grad(probs, dldp));
      },
      "multiclass_dice");
}

}  // namespace apf::ag
