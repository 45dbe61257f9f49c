#pragma once
// Tape-based reverse-mode automatic differentiation.
//
// A Var is a shared handle to a graph Node {value, grad, parents, backward
// closure}. Operations build the graph eagerly; Var::backward() runs a
// topological sweep calling each node's closure, which accumulates into the
// parents' grads. Modules (nn/) keep parameter Vars alive across steps; the
// rest of the tape frees when the loss Var goes out of scope.
//
// Custom fused ops (convolution, scatter-to-grid, losses) are built with
// make_op(), which is the single extension point other libraries use.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "tensor/tensor.h"

namespace apf {
namespace ag {

/// One vertex of the autograd tape.
struct Node {
  Tensor value;
  Tensor grad;  // lazily allocated to zeros on first touch
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Reads this->grad and accumulates into parents' grads. Null for leaves.
  std::function<void(Node&)> backward_fn;
  const char* op_name = "leaf";

  /// Returns grad, allocating zeros of value's shape on first use.
  Tensor& ensure_grad();
};

/// Thread-local switch controlling whether ops record the autograd tape.
/// When disabled, make_op() produces detached nodes (no parents, no
/// backward closure) and value-level ops skip saving activations that are
/// only needed for backward — the grad-free inference fast path.
struct GradMode {
  static bool is_enabled();
  static void set_enabled(bool enabled);
};

/// Whether newly created ops record the tape (thread-local). Evaluation
/// loops disable it via NoGradGuard to skip graph construction.
inline bool grad_enabled() { return GradMode::is_enabled(); }

/// RAII guard that disables tape recording in scope.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// RAII guard that re-enables tape recording inside a NoGradGuard scope
/// (e.g. a gradient-based sub-procedure running under a serving loop).
class EnableGradGuard {
 public:
  EnableGradGuard();
  ~EnableGradGuard();
  EnableGradGuard(const EnableGradGuard&) = delete;
  EnableGradGuard& operator=(const EnableGradGuard&) = delete;

 private:
  bool prev_;
};

/// Differentiable tensor handle (cheap to copy; shares the Node).
class Var {
 public:
  Var() = default;
  /// Wraps a tensor as a leaf. requires_grad marks it a trainable parameter.
  explicit Var(Tensor value, bool requires_grad = false);

  /// Trainable leaf (parameter).
  static Var param(Tensor value) { return Var(std::move(value), true); }
  /// Non-trainable leaf (input / constant).
  static Var constant(Tensor value) { return Var(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& val() const { return node_->value; }
  Tensor& val_mut() { return node_->value; }
  /// Gradient tensor (allocated on demand).
  Tensor& grad() { return node_->ensure_grad(); }
  bool requires_grad() const { return node_ && node_->requires_grad; }
  const std::shared_ptr<Node>& node() const { return node_; }

  /// Shape passthroughs.
  const Shape& shape() const { return node_->value.shape(); }
  std::int64_t size(std::int64_t i) const { return node_->value.size(i); }
  std::int64_t numel() const { return node_->value.numel(); }

  /// Zeroes this node's grad (if allocated).
  void zero_grad();

  /// Reverse sweep from this node, seeding with ones (for scalar losses)
  /// or with seed_grad when provided.
  void backward() const;
  void backward(const Tensor& seed_grad) const;

  /// Internal: wraps an existing node.
  static Var wrap(std::shared_ptr<Node> n);

 private:
  std::shared_ptr<Node> node_;
};

/// Builds a non-leaf node. `backward_fn` may be empty for non-differentiable
/// results. If tape recording is disabled or no parent requires grad, the
/// node is detached (no parents, no closure) — extension point for fused ops.
Var make_op(Tensor value, std::vector<Var> parents,
            std::function<void(Node&)> backward_fn, const char* name);

// ---- Arithmetic ---------------------------------------------------------
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var scale(const Var& a, float s);
Var add_scalar(const Var& a, float s);
/// x[..., D] + bias[D].
Var add_bias(const Var& x, const Var& bias);
/// Elementwise product with a constant mask (no grad through mask).
Var mul_mask(const Var& x, const Tensor& mask);

// ---- Linear algebra --------------------------------------------------------
Var matmul(const Var& a, const Var& b, bool trans_a = false,
           bool trans_b = false);
Var bmm(const Var& a, const Var& b, bool trans_a = false,
        bool trans_b = false);

// ---- Activations -----------------------------------------------------------
Var relu(const Var& a);
Var gelu(const Var& a);
Var sigmoid(const Var& a);
Var tanh(const Var& a);

// ---- Normalization / softmax -------------------------------------------------
/// LayerNorm over the last dim with affine params gamma/beta (both [D]).
Var layernorm(const Var& x, const Var& gamma, const Var& beta,
              float eps = 1e-5f);
/// Softmax over last dim; optional [B, N] key validity mask (see ops).
Var softmax_lastdim(const Var& x, const Tensor* key_mask = nullptr);

// ---- Shape ------------------------------------------------------------------
Var reshape(const Var& a, Shape shape);
Var permute(const Var& a, const std::vector<int>& perm);
Var concat(const std::vector<Var>& xs, std::int64_t axis);
Var slice(const Var& a, std::int64_t axis, std::int64_t start,
          std::int64_t len);

// ---- Reductions ----------------------------------------------------------------
/// Scalar (shape [1]) sum / mean of all elements.
Var sum(const Var& a);
Var mean(const Var& a);

// ---- Regularization --------------------------------------------------------------
/// Inverted dropout: scales kept activations by 1/(1-p). Identity when
/// training is false or p == 0.
Var dropout(const Var& a, float p, Rng& rng, bool training);

// ---- Losses (fused forward + closed-form gradient) ---------------------------------
/// Mean binary cross-entropy with logits over all elements; targets in {0,1}.
Var bce_with_logits_mean(const Var& logits, const Tensor& targets);
/// Binary soft dice loss on sigmoid(logits): 1 - (2Σpt+eps)/(Σp+Σt+eps).
Var binary_dice_loss(const Var& logits, const Tensor& targets,
                     float eps = 1.f);
/// Paper Eq. (7): w * BCE + (1-w) * dice.
Var combined_seg_loss(const Var& logits, const Tensor& targets, float w = 0.5f,
                      float eps = 1.f);
/// Mean cross-entropy over rows of logits [R, C] with integer labels.
Var cross_entropy_mean(const Var& logits,
                       const std::vector<std::int64_t>& labels);
/// Multi-class soft dice over softmax(logits [R, C]); averages (1 - dice_c)
/// over classes, optionally skipping class 0 (background).
Var multiclass_dice_loss(const Var& logits,
                         const std::vector<std::int64_t>& labels,
                         bool ignore_background = true, float eps = 1.f);

}  // namespace ag

using ag::NoGradGuard;
using ag::Var;

}  // namespace apf
