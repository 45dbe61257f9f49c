#include "models/transunet.h"

#include "models/posenc.h"

namespace apf::models {

TransUnetLite::TransUnetLite(const TransUnetConfig& cfg, Rng& rng)
    : cfg_(cfg) {
  const std::int64_t down = std::int64_t{1} << cfg.stem_levels;
  APF_CHECK(cfg.image_size % down == 0,
            "TransUnetLite: image size must be divisible by 2^stem_levels");
  grid_ = cfg.image_size / down;

  auto width = [&](std::int64_t lvl) { return cfg.stem_channels << lvl; };
  std::int64_t in_c = cfg.in_channels;
  for (std::int64_t l = 0; l < cfg.stem_levels; ++l) {
    stem_.push_back(std::make_unique<ConvBlock2d>(in_c, width(l), rng));
    add_child("stem" + std::to_string(l), *stem_.back());
    pools_.push_back(std::make_unique<nn::MaxPool2d>());
    in_c = width(l);
  }
  to_tokens_ = std::make_unique<nn::Linear>(in_c, cfg.d_model, rng);
  add_child("to_tokens", *to_tokens_);
  encoder_ = std::make_unique<nn::TransformerEncoder>(
      cfg.d_model, cfg.depth, cfg.heads, 4 * cfg.d_model, rng);
  add_child("encoder", *encoder_);
  from_tokens_ = std::make_unique<nn::Linear>(cfg.d_model, in_c, rng);
  add_child("from_tokens", *from_tokens_);

  for (std::int64_t l = cfg.stem_levels - 1; l >= 0; --l) {
    const std::int64_t cur = width(l);
    const std::int64_t up_in = l == cfg.stem_levels - 1 ? in_c : width(l + 1);
    ups_.push_back(std::make_unique<nn::ConvTranspose2d>(up_in, cur, rng));
    add_child("up" + std::to_string(l), *ups_.back());
    // Fuses the upsampled path with the matching stem skip.
    up_blocks_.push_back(std::make_unique<ConvBlock2d>(2 * cur, cur, rng));
    add_child("upblock" + std::to_string(l), *up_blocks_.back());
  }
  head_ =
      std::make_unique<nn::Conv2d>(cfg.stem_channels, cfg.out_channels, 1, 1,
                                   0, rng);
  add_child("head", *head_);

  pos_ = core::sincos_position(core::uniform_grid_meta(grid_, cfg.image_size),
                               cfg.image_size, cfg.d_model);
}

Var TransUnetLite::forward(const Var& x) const {
  const Tensor& xv = x.val();
  APF_CHECK(xv.ndim() == 4 && xv.size(2) == cfg_.image_size &&
                xv.size(3) == cfg_.image_size,
            "TransUnetLite: input " << xv.str() << " vs image size "
                                    << cfg_.image_size);
  const std::int64_t b = xv.size(0);

  // CNN stem with skip taps.
  std::vector<Var> skips;
  Var h = x;
  for (std::size_t l = 0; l < stem_.size(); ++l) {
    h = stem_[l]->forward(h);
    skips.push_back(h);
    h = pools_[l]->forward(h);
  }
  const std::int64_t c_bot = h.size(1);

  // Tokens from the bottleneck grid: [B, C, G, G] -> [B, G*G, C].
  Var tokens = ag::reshape(h, {b, c_bot, grid_ * grid_});
  tokens = ag::permute(tokens, {0, 2, 1});
  tokens = to_tokens_->forward(tokens);  // [B, G*G, D]

  // Fixed sinusoidal positions, broadcast across the batch.
  Tensor pos_b({b, grid_ * grid_, cfg_.d_model});
  for (std::int64_t i = 0; i < b; ++i)
    std::copy(pos_.data(), pos_.data() + pos_.numel(),
              pos_b.data() + i * pos_.numel());
  tokens = ag::add(tokens, Var::constant(pos_b));

  tokens = encoder_->forward(tokens, nullptr, drop_rng_);
  tokens = from_tokens_->forward(tokens);  // [B, G*G, C_bot]

  // Back to a spatial map and decode with stem skips.
  Var f = ag::permute(tokens, {0, 2, 1});
  f = ag::reshape(f, {b, c_bot, grid_, grid_});
  for (std::size_t i = 0; i < ups_.size(); ++i) {
    f = ups_[i]->forward(f);
    const Var& skip = skips[skips.size() - 1 - i];
    f = up_blocks_[i]->forward(ag::concat({f, skip}, 1));
  }
  return head_->forward(f);
}

}  // namespace apf::models
