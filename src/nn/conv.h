#pragma once
// Convolutional layers (NCHW): Conv2d, ConvTranspose2d, MaxPool2d,
// BatchNorm2d. Implemented as im2col + GEMM with fused autograd closures.
// Conv2d's forward never builds the whole-image column matrix: it fills
// one band of output rows at a time (conv_band_rows: about one gemm B
// block, so it stays in L2) into per-thread scratch and multiplies it
// straight into the output, every (item, band) pair under one
// parallel_for. Backward recomputes each item's whole-image im2col
// instead of caching it, to bound memory.

#include <cstdint>

#include "nn/module.h"
#include "core/rng.h"

namespace apf::nn {

/// Output rows per im2col band in Conv2d::forward, for ckk = in_channels *
/// kernel^2 column rows and out_w output columns: as many rows as fit one
/// gemm B block (kGemmBlockK x kGemmBlockN floats, tensor/gemm.h), at
/// least one.
std::int64_t conv_band_rows(std::int64_t ckk, std::int64_t out_w);

/// Standard 2-D convolution with square kernel, zero padding.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng,
         bool bias = true);

  /// x: [B, C_in, H, W] -> [B, C_out, OH, OW].
  Var forward(const Var& x) const;

 private:
  std::int64_t in_c_, out_c_, k_, stride_, pad_;
  Var weight_;  ///< [out_c, in_c * k * k]
  Var bias_;    ///< [out_c]
};

/// Transposed convolution (learned upsampling). Output spatial size is
/// (H - 1) * stride + k - 2 * pad.
class ConvTranspose2d : public Module {
 public:
  ConvTranspose2d(std::int64_t in_channels, std::int64_t out_channels,
                  std::int64_t kernel, std::int64_t stride, Rng& rng,
                  bool bias = true);

  /// x: [B, C_in, H, W] -> [B, C_out, (H-1)*stride + k, ...].
  Var forward(const Var& x) const;

 private:
  std::int64_t in_c_, out_c_, k_, stride_;
  Var weight_;  ///< [in_c, out_c * k * k]
  Var bias_;    ///< [out_c]
};

/// 2x2 stride-2 max pooling.
class MaxPool2d : public Module {
 public:
  MaxPool2d() = default;
  /// x: [B, C, H, W] with even H, W -> [B, C, H/2, W/2].
  Var forward(const Var& x) const;
};

/// Batch normalization over (B, H, W) per channel with running statistics.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  /// Uses batch statistics (and updates running stats) in training mode,
  /// running statistics in eval mode.
  Var forward(const Var& x) const;

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  std::int64_t c_;
  float eps_, momentum_;
  Var gamma_, beta_;
  mutable Tensor running_mean_, running_var_;
};

}  // namespace apf::nn
