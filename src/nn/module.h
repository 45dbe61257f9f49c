#pragma once
// Module base class: parameter and buffer registration, recursive
// traversal, train/eval mode. Children are registered as non-owning
// pointers to member sub-objects (constructed before the ctor body runs),
// which keeps model definitions plain C++ composition.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/autograd.h"

namespace apf::nn {

/// Base class for all layers and models.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters, depth-first (Var is a shared handle).
  std::vector<Var> parameters() const;

  /// Parameters with hierarchical dotted names (for logging/checkpoints).
  std::vector<std::pair<std::string, Var>> named_parameters(
      const std::string& prefix = "") const;

  /// Non-trainable state with hierarchical dotted names, depth-first:
  /// values a forward reads besides the parameters (BatchNorm2d's running
  /// statistics). Checkpoints save them and the inference cache keys on
  /// them. The tensors share storage with the owning module's members.
  std::vector<std::pair<std::string, Tensor>> named_buffers(
      const std::string& prefix = "") const;

  /// Zeroes every parameter gradient.
  void zero_grad();

  /// Total scalar parameter count.
  std::int64_t num_parameters() const;

  /// Train/eval mode (affects dropout and batch-norm statistics).
  void set_training(bool on);
  bool training() const { return training_; }

 protected:
  /// Registers a trainable parameter; returns the stored Var handle.
  Var& add_param(std::string name, Tensor init);
  /// Registers a buffer (non-trainable state); returns the stored handle,
  /// whose storage the caller's copy shares.
  Tensor& add_buffer(std::string name, Tensor init);
  /// Registers a non-owning child (a member sub-module).
  void add_child(std::string name, Module& child);

 private:
  std::vector<std::pair<std::string, Var>> params_;
  std::vector<std::pair<std::string, Tensor>> buffers_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

/// RAII: switches a module to eval mode for a scope, then restores the
/// mode it had.
class EvalGuard {
 public:
  explicit EvalGuard(Module& m) : m_(m), was_(m.training()) {
    m_.set_training(false);
  }
  ~EvalGuard() { m_.set_training(was_); }
  EvalGuard(const EvalGuard&) = delete;
  EvalGuard& operator=(const EvalGuard&) = delete;

 private:
  Module& m_;
  bool was_;
};

}  // namespace apf::nn
