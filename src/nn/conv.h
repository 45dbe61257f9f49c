#pragma once
// Convolutional layers (NCHW): Conv2d, ConvTranspose2d, MaxPool2d,
// BatchNorm2d. Implemented as im2col + GEMM with fused autograd closures.
//
// Both conv forwards run one band loop: every (item, band of rows) pair
// is one parallel_for task, and no whole-image column matrix exists.
//  * Conv2d fills one band of output rows' im2col columns (conv_band_rows:
//    about one gemm B block, so it stays in L2) into per-thread scratch
//    and multiplies it straight into the output.
//  * ConvTranspose2d (2x2, stride 2, so no two taps overlap) multiplies
//    one band of input rows into per-thread scratch, then writes the
//    output rows those columns map to in one pass: the 2x2 interleave, as
//    0.f + column (what a zeroed col2im plane plus one add gives), then
//    the bias.
// Each band then runs its epilogue (ops::conv_epilogue_row) while it is
// still in cache: the bias, and on the grad-free eval path
// (forward_bn_relu) an eval BatchNorm2d and a ReLU as well. Every element
// gets the separate ops' arithmetic in their order, so forward_bn_relu is
// bitwise equal to relu(bn.forward(forward(x))) — without the two extra
// passes over the plane and the two planes they allocate. Backward
// recomputes each item's whole-image im2col instead of caching it, to
// bound memory.

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "core/rng.h"
#include "tensor/ops.h"

namespace apf::nn {

/// Output rows per im2col band in Conv2d::forward, for ckk = in_channels *
/// kernel^2 column rows and out_w output columns: as many rows as fit one
/// gemm B block (kGemmBlockK x kGemmBlockN floats, tensor/gemm.h), at
/// least one.
std::int64_t conv_band_rows(std::int64_t ckk, std::int64_t out_w);

class BatchNorm2d;

/// Standard 2-D convolution with square kernel, zero padding.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng,
         bool bias = true);

  /// x: [B, C_in, H, W] -> [B, C_out, OH, OW].
  Var forward(const Var& x) const;

  /// Grad-free eval relu(bn(forward(x))), bitwise, with bn and the ReLU
  /// applied to each output band in the band loop. Requires grad off and
  /// bn in eval mode with out_channels channels.
  Var forward_bn_relu(const Var& x, const BatchNorm2d& bn) const;

 private:
  /// The band loop; bn (out_c_ channels, or null) and the ReLU that comes
  /// with it run in each band's epilogue.
  Tensor run(const Tensor& x, const ops::BnChannel* bn) const;

  std::int64_t in_c_, out_c_, k_, stride_, pad_;
  Var weight_;  ///< [out_c, in_c * k * k]
  Var bias_;    ///< [out_c]
};

/// 2x2 stride-2 transposed convolution (learned 2x upsampling), the one
/// geometry the decoders use. Kernel == stride, so no two taps overlap.
class ConvTranspose2d : public Module {
 public:
  ConvTranspose2d(std::int64_t in_channels, std::int64_t out_channels,
                  Rng& rng, bool bias = true);

  /// x: [B, C_in, H, W] -> [B, C_out, 2 * H, 2 * W].
  Var forward(const Var& x) const;

  /// Grad-free eval relu(bn(forward(x))), bitwise; as Conv2d's.
  Var forward_bn_relu(const Var& x, const BatchNorm2d& bn) const;

 private:
  Tensor run(const Tensor& x, const ops::BnChannel* bn) const;

  std::int64_t in_c_, out_c_;
  Var weight_;  ///< [in_c, out_c * 2 * 2]
  Var bias_;    ///< [out_c]
};

/// 2x2 stride-2 max pooling.
class MaxPool2d : public Module {
 public:
  MaxPool2d() = default;
  /// x: [B, C, H, W] with even H, W -> [B, C, H/2, W/2].
  Var forward(const Var& x) const;
};

/// Batch normalization over (B, H, W) per channel with running statistics,
/// which are registered buffers (saved by checkpoints, keyed by the cache).
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  /// Uses batch statistics (and updates running stats) in training mode,
  /// running statistics in eval mode.
  Var forward(const Var& x) const;

  /// Per-channel eval constants (running statistics, gamma, beta), the
  /// values forward applies in eval mode; the conv layers' grad-free
  /// epilogue runs them.
  std::vector<ops::BnChannel> eval_channels() const;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  std::int64_t c_;
  float eps_, momentum_;
  Var gamma_, beta_;
  mutable Tensor running_mean_, running_var_;
};

}  // namespace apf::nn
