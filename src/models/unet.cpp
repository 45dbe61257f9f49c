#include "models/unet.h"

namespace apf::models {

Unet2d::Unet2d(const UnetConfig& cfg, Rng& rng) : cfg_(cfg) {
  APF_CHECK(cfg.levels >= 1, "Unet2d: need at least one level");
  auto width = [&](std::int64_t lvl) { return cfg.base_channels << lvl; };

  std::int64_t in_c = cfg.in_channels;
  for (std::int64_t l = 0; l < cfg.levels; ++l) {
    down_.push_back(std::make_unique<ConvBlock2d>(in_c, width(l), rng));
    add_child("down" + std::to_string(l), *down_.back());
    pools_.push_back(std::make_unique<nn::MaxPool2d>());
    in_c = width(l);
  }
  bottleneck_ =
      std::make_unique<ConvBlock2d>(width(cfg.levels - 1), width(cfg.levels), rng);
  add_child("bottleneck", *bottleneck_);

  for (std::int64_t l = cfg.levels - 1; l >= 0; --l) {
    ups_.push_back(
        std::make_unique<nn::ConvTranspose2d>(width(l + 1), width(l), rng));
    add_child("up" + std::to_string(l), *ups_.back());
    up_blocks_.push_back(
        std::make_unique<ConvBlock2d>(2 * width(l), width(l), rng));
    add_child("upblock" + std::to_string(l), *up_blocks_.back());
  }
  head_ = std::make_unique<nn::Conv2d>(width(0), cfg.out_channels, 1, 1, 0, rng);
  add_child("head", *head_);
}

Var Unet2d::forward(const Var& x) const {
  std::vector<Var> skips;
  Var h = x;
  for (std::size_t l = 0; l < down_.size(); ++l) {
    h = down_[l]->forward(h);
    skips.push_back(h);
    h = pools_[l]->forward(h);
  }
  h = bottleneck_->forward(h);
  for (std::size_t i = 0; i < ups_.size(); ++i) {
    h = ups_[i]->forward(h);
    const Var& skip = skips[skips.size() - 1 - i];
    h = up_blocks_[i]->forward(ag::concat({h, skip}, 1));
  }
  return head_->forward(h);
}

}  // namespace apf::models
