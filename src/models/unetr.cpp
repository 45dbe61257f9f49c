#include "models/unetr.h"

#include <cmath>

namespace apf::models {

ConvBlock2d::ConvBlock2d(std::int64_t in_c, std::int64_t out_c, Rng& rng)
    : c1_(in_c, out_c, 3, 1, 1, rng), c2_(out_c, out_c, 3, 1, 1, rng),
      b1_(out_c), b2_(out_c) {
  add_child("c1", c1_);
  add_child("c2", c2_);
  add_child("b1", b1_);
  add_child("b2", b2_);
}

Var ConvBlock2d::forward(const Var& x) const {
  if (!ag::grad_enabled() && !training())
    return c2_.forward_bn_relu(c1_.forward_bn_relu(x, b1_), b2_);
  Var h = ag::relu(b1_.forward(c1_.forward(x)));
  return ag::relu(b2_.forward(c2_.forward(h)));
}

UpBlock2d::UpBlock2d(std::int64_t in_c, std::int64_t out_c, Rng& rng)
    : up_(in_c, out_c, rng), bn_(out_c) {
  add_child("up", up_);
  add_child("bn", bn_);
}

Var UpBlock2d::forward(const Var& x) const {
  if (!ag::grad_enabled() && !training()) return up_.forward_bn_relu(x, bn_);
  return ag::relu(bn_.forward(up_.forward(x)));
}

namespace {

std::vector<core::GridScatterPlan> make_scatter_plans(
    const core::TokenBatch& batch, std::int64_t grid) {
  std::vector<core::GridScatterPlan> plans;
  plans.reserve(static_cast<std::size_t>(batch.batch()));
  for (std::int64_t i = 0; i < batch.batch(); ++i)
    plans.emplace_back(batch.meta[static_cast<std::size_t>(i)],
                       batch.image_size, grid);
  return plans;
}

}  // namespace

Var scatter_batch(const Var& hidden, const core::TokenBatch& batch,
                  std::int64_t grid) {
  return scatter_batch(hidden, batch, grid, make_scatter_plans(batch, grid));
}

Var scatter_batch(const Var& hidden, const core::TokenBatch& batch,
                  std::int64_t grid,
                  const std::vector<core::GridScatterPlan>& plans) {
  const std::int64_t b = hidden.size(0), l = hidden.size(1),
                     d = hidden.size(2);
  APF_CHECK(b == batch.batch() && l == batch.length(),
            "scatter_batch: hidden " << hidden.val().str()
                                     << " vs batch geometry");
  APF_CHECK(static_cast<std::int64_t>(plans.size()) == b,
            "scatter_batch: " << plans.size() << " plans for batch " << b);
  std::vector<Var> maps;
  maps.reserve(static_cast<std::size_t>(b));
  for (std::int64_t i = 0; i < b; ++i) {
    Var item = ag::reshape(ag::slice(hidden, 0, i, 1), {l, d});
    maps.push_back(ag::reshape(
        plans[static_cast<std::size_t>(i)].scatter(item), {1, d, grid, grid}));
  }
  return b == 1 ? maps[0] : ag::concat(maps, 0);
}

Unetr2d::Unetr2d(const UnetrConfig& cfg, Rng& rng)
    : cfg_(cfg), encoder_(cfg.enc, rng) {
  APF_CHECK(cfg.image_size % cfg.grid == 0,
            "Unetr2d: grid must divide image size");
  std::int64_t ratio = cfg.image_size / cfg.grid;
  APF_CHECK((ratio & (ratio - 1)) == 0, "Unetr2d: Z/G must be a power of 2");
  stages_ = 0;
  while ((std::int64_t{1} << stages_) < ratio) ++stages_;
  add_child("encoder", encoder_);

  // Tap encoder layers evenly (UNETR's z3/z6/z9 analogue): earliest tap
  // feeds the finest skip.
  const std::int64_t depth = cfg.enc.depth;
  const std::int64_t n_skips = std::min<std::int64_t>(stages_, depth - 1);
  for (std::int64_t k = 1; k <= n_skips; ++k) {
    taps_.push_back(static_cast<int>(std::max<std::int64_t>(
        1, (depth * k) / (n_skips + 1))));
  }

  const std::int64_t d_model = cfg.enc.d_model;
  auto width = [&](std::int64_t s) {
    return std::max<std::int64_t>(8, cfg.base_channels >> s);
  };
  bottleneck_ = std::make_unique<ConvBlock2d>(d_model, width(0), rng);
  add_child("bottleneck", *bottleneck_);
  for (std::int64_t s = 1; s <= stages_; ++s) {
    ups_.push_back(std::make_unique<UpBlock2d>(width(s - 1), width(s), rng));
    add_child("up" + std::to_string(s), *ups_.back());
    const bool has_skip = s <= n_skips;
    skip_chains_.emplace_back();
    if (has_skip) {
      // Chain of s deconvs lifting the tapped state from G to G * 2^s.
      auto& chain = skip_chains_.back();
      for (std::int64_t j = 0; j < s; ++j) {
        const std::int64_t in_c = j == 0 ? d_model : width(s);
        chain.push_back(std::make_unique<UpBlock2d>(in_c, width(s), rng));
        add_child("skip" + std::to_string(s) + "_" + std::to_string(j),
                  *chain.back());
      }
      fuse_.push_back(
          std::make_unique<ConvBlock2d>(2 * width(s), width(s), rng));
    } else {
      fuse_.push_back(std::make_unique<ConvBlock2d>(width(s), width(s), rng));
    }
    add_child("fuse" + std::to_string(s), *fuse_.back());
  }
  head_ = std::make_unique<nn::Conv2d>(width(stages_), cfg.out_channels, 1, 1,
                                       0, rng);
  add_child("head", *head_);
}

Var Unetr2d::forward(const core::TokenBatch& batch, Rng& rng) const {
  APF_CHECK(batch.image_size == cfg_.image_size,
            "Unetr2d: batch image size " << batch.image_size << " vs config "
                                         << cfg_.image_size);
  std::vector<Var> hidden;
  Var final = encoder_.encode(batch, rng, taps_, &hidden);

  // The scatter plans depend only on batch geometry, and every scatter in
  // this forward (bottleneck + one per skip) shares them — build once.
  const std::vector<core::GridScatterPlan> plans =
      make_scatter_plans(batch, cfg_.grid);

  // Base feature map from the final encoder state.
  Var f =
      bottleneck_->forward(scatter_batch(final, batch, cfg_.grid, plans));

  const std::int64_t n_skips = static_cast<std::int64_t>(taps_.size());
  for (std::int64_t s = 1; s <= stages_; ++s) {
    f = ups_[static_cast<std::size_t>(s - 1)]->forward(f);
    if (s <= n_skips) {
      // Stage 1 (coarsest fuse) uses the LATEST tapped layer; the finest
      // stage uses the earliest (UNETR convention).
      const Var& tapped = hidden[static_cast<std::size_t>(n_skips - s)];
      Var skip = scatter_batch(tapped, batch, cfg_.grid, plans);
      for (const auto& up : skip_chains_[static_cast<std::size_t>(s - 1)])
        skip = up->forward(skip);
      f = fuse_[static_cast<std::size_t>(s - 1)]->forward(
          ag::concat({f, skip}, 1));
    } else {
      f = fuse_[static_cast<std::size_t>(s - 1)]->forward(f);
    }
  }
  return head_->forward(f);
}

}  // namespace apf::models
