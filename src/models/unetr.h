#pragma once
// 2-D UNETR (Hatamizadeh et al.), the paper's host model: a transformer
// encoder over patch tokens plus a convolutional decoder fed by multi-depth
// skip connections. This implementation swaps the 3-D conv blocks of the
// original for 2-D ones — exactly the adaptation the paper describes — and
// consumes tokens from EITHER patcher via the scatter-to-grid bridge.

#include <memory>
#include <vector>

#include "models/scatter.h"
#include "models/segmodel.h"
#include "models/token_encoder.h"
#include "nn/conv.h"

namespace apf::models {

/// UNETR geometry + stem configuration.
struct UnetrConfig {
  EncoderConfig enc;
  std::int64_t image_size = 128;   ///< Z (square)
  std::int64_t grid = 16;          ///< decoder base grid G; Z/G = 2^stages
  std::int64_t out_channels = 1;   ///< logits channels (1 = binary)
  std::int64_t base_channels = 32; ///< decoder width at the base grid
};

// Decoder blocks. With grad off and the block in eval mode, each layer runs
// as one pass: the conv's band loop applies the batch norm's running
// statistics and the ReLU to each output band (nn::Conv2d::forward_bn_relu,
// nn::ConvTranspose2d::forward_bn_relu), with the separate ops' arithmetic
// per element, so the logits are bitwise those of the taped path and no
// batch-norm or ReLU plane is allocated. With grad on, or in training mode
// (batch statistics), the layers run as separate taped ops.

/// Conv3x3 + BN + ReLU, twice (classic decoder block).
class ConvBlock2d : public nn::Module {
 public:
  ConvBlock2d(std::int64_t in_c, std::int64_t out_c, Rng& rng);
  Var forward(const Var& x) const;

 private:
  nn::Conv2d c1_, c2_;
  nn::BatchNorm2d b1_, b2_;
};

/// ConvTranspose(k=2, s=2) + BN + ReLU (x2 upsample).
class UpBlock2d : public nn::Module {
 public:
  UpBlock2d(std::int64_t in_c, std::int64_t out_c, Rng& rng);
  Var forward(const Var& x) const;

 private:
  nn::ConvTranspose2d up_;
  nn::BatchNorm2d bn_;
};

/// The full UNETR-2D segmentation model.
class Unetr2d : public TokenSegModel {
 public:
  Unetr2d(const UnetrConfig& cfg, Rng& rng);

  /// Token batch -> per-pixel logits [B, out_channels, Z, Z].
  Var forward(const core::TokenBatch& batch, Rng& rng) const override;

  /// Encoder shape for dist::vit_flops_per_image (seq_len left for the
  /// caller to fill with the actual token count).
  dist::VitSpec encoder_spec() const override {
    dist::VitSpec spec;
    spec.token_dim = cfg_.enc.token_dim;
    spec.d_model = cfg_.enc.d_model;
    spec.depth = cfg_.enc.depth;
    spec.heads = cfg_.enc.heads;
    spec.mlp_ratio = cfg_.enc.mlp_ratio;
    return spec;
  }

  std::int64_t expected_image_size() const override {
    return cfg_.image_size;
  }

  const UnetrConfig& config() const { return cfg_; }

 private:
  UnetrConfig cfg_;
  std::int64_t stages_;  ///< log2(Z / G)
  TokenEncoder encoder_;
  std::vector<int> taps_;
  std::unique_ptr<ConvBlock2d> bottleneck_;
  std::vector<std::unique_ptr<UpBlock2d>> ups_;
  // skip_chains_[s] upsamples the tapped hidden state to stage s resolution.
  std::vector<std::vector<std::unique_ptr<UpBlock2d>>> skip_chains_;
  std::vector<std::unique_ptr<ConvBlock2d>> fuse_;
  std::unique_ptr<nn::Conv2d> head_;
};

/// Scatters per-item hidden states [B, L, D] onto [B, D, G, G] using the
/// batch's token geometry (shared by UNETR and TransUNet-style decoders).
Var scatter_batch(const Var& hidden, const core::TokenBatch& batch,
                  std::int64_t grid);
/// Same, reusing caller-built per-item plans (they depend only on batch
/// geometry, so a decoder that scatters several taps builds them once).
Var scatter_batch(const Var& hidden, const core::TokenBatch& batch,
                  std::int64_t grid,
                  const std::vector<core::GridScatterPlan>& plans);

}  // namespace apf::models
