#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <optional>
#include <utility>

#include "tensor/arena.h"
#include "tensor/gemm_backend.h"

namespace apf::serve {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

InferenceEngine::InferenceEngine(models::TokenSegModel& model,
                                 EngineConfig cfg,
                                 std::shared_ptr<InferenceCache> cache)
    : model_(model),
      cfg_(cfg),
      patcher_(cfg.patcher),
      cache_(std::move(cache)),
      fingerprint_(cache_ ? compute_engine_fingerprint(model, cfg.patcher,
                                                       cfg.mask_threshold)
                          : EngineFingerprint{}) {
  APF_CHECK(cfg_.max_batch > 0,
            "EngineConfig: max_batch must be positive, got "
                << cfg_.max_batch);
  // The comparison form also rejects NaN. 0 and 1 are legal degenerate
  // thresholds (everything / nothing foreground): the logit-space cutoff
  // becomes -inf / +inf and the comparisons below stay well defined.
  APF_CHECK(cfg_.mask_threshold >= 0.f && cfg_.mask_threshold <= 1.f,
            "EngineConfig: mask_threshold must be in [0, 1], got "
                << cfg_.mask_threshold);
  APF_CHECK(cfg_.patcher.seq_len >= 0,
            "EngineConfig: patcher seq_len must be >= 0 (0 = variable "
            "length), got "
                << cfg_.patcher.seq_len);
}

void InferenceEngine::validate_image(const img::Image& image,
                                     std::int64_t index) const {
  const auto where = [index]() -> std::string {
    return index >= 0 ? "image " + std::to_string(index) : "image";
  };
  APF_CHECK(image.h > 0 && image.w > 0 && image.c > 0,
            "InferenceEngine: " << where() << " is empty (" << image.h << "x"
                                << image.w << "x" << image.c << ")");
  // Image exposes its geometry and its buffer separately, and Image::at
  // bounds-checks only in debug builds: a short buffer would be read past
  // its end. size == h * w * c is tested by division, so nothing overflows.
  const auto size = static_cast<std::uint64_t>(image.data.size());
  const auto h = static_cast<std::uint64_t>(image.h);
  const auto w = static_cast<std::uint64_t>(image.w);
  const auto c = static_cast<std::uint64_t>(image.c);
  APF_CHECK(size % c == 0 && size / c % w == 0 && size / c / w == h,
            "InferenceEngine: " << where() << " is " << image.h << "x"
                                << image.w << "x" << image.c << " but holds "
                                << size << " pixel values");
  APF_CHECK(image.h == image.w,
            "InferenceEngine: " << where() << " is " << image.h << "x"
                                << image.w << "x" << image.c
                                << " but the model needs square inputs");
  const std::int64_t expected = model_.expected_image_size();
  APF_CHECK(expected <= 0 || image.h == expected,
            "InferenceEngine: " << where() << " is " << image.h << "x"
                                << image.w << "x" << image.c
                                << " but the model was built for " << expected
                                << "x" << expected);
  // The model's token dimension pins the channel count when it divides
  // cleanly by the patch area (token_dim = C * Pm * Pm).
  const std::int64_t token_dim = model_.encoder_spec().token_dim;
  const std::int64_t area = cfg_.patcher.patch_size * cfg_.patcher.patch_size;
  if (token_dim > 0 && area > 0 && token_dim % area == 0) {
    const std::int64_t expected_c = token_dim / area;
    APF_CHECK(image.c == expected_c,
              "InferenceEngine: " << where() << " has " << image.c
                                  << " channel(s) but the model's token dim "
                                  << token_dim << " with patch size "
                                  << cfg_.patcher.patch_size << " needs "
                                  << expected_c);
  }
  const auto bad = std::find_if_not(image.data.begin(), image.data.end(),
                                    [](float v) { return std::isfinite(v); });
  APF_CHECK(bad == image.data.end(),
            "InferenceEngine: " << where() << " has a non-finite pixel ("
                                << *bad << " at index "
                                << (bad - image.data.begin()) << ")");
}

void InferenceStats::add_request(const InferenceStats& request) {
  images += request.images;
  tokens += request.tokens;
  padded_tokens += request.padded_tokens;
  queue_depth += request.queue_depth;
  patch_cache_hits += request.patch_cache_hits;
  patch_cache_misses += request.patch_cache_misses;
  result_cache_hits += request.result_cache_hits;
  result_cache_misses += request.result_cache_misses;
  patch_seconds += request.patch_seconds;
  queue_seconds += request.queue_seconds;
  model_flops += request.model_flops;
  gemm_backend = request.gemm_backend;
}

void InferenceEngine::patch_into(const img::Image& image,
                                 PatchedImage& item) const {
  std::optional<core::Digest128> pkey;
  if (cache_) {
    if (!item.image_key) item.image_key = InferenceCache::image_key(image);
    pkey = InferenceCache::patch_key(fingerprint_, *item.image_key);
    if (std::optional<core::PatchSequence> hit = cache_->get_patch(*pkey)) {
      item.seq = std::move(*hit);
      item.patch_cache_hit = true;
      return;
    }
  }
  // nullptr rng forces the deterministic coarsest-first drop so serving
  // results are reproducible regardless of arrival order.
  item.seq = patcher_.process_unpadded(image, /*rng=*/nullptr);
  if (pkey) cache_->put_patch(*pkey, item.seq);
}

core::PatchSequence InferenceEngine::patch(const img::Image& image) const {
  validate_image(image);
  PatchedImage item;
  patch_into(image, item);
  return std::move(item.seq);
}

core::TokenBatch InferenceEngine::prepare(
    const std::vector<core::PatchSequence>& seqs, std::int64_t target_len) {
  APF_CHECK(!seqs.empty(), "InferenceEngine::prepare: empty batch");
  std::int64_t max_len = 0;
  for (const core::PatchSequence& s : seqs) {
    APF_CHECK(s.image_size == seqs[0].image_size,
              "InferenceEngine::prepare: mixed source image sizes in batch ("
                  << s.image_size << " vs " << seqs[0].image_size << ")");
    max_len = std::max(max_len, s.length());
  }
  if (target_len == 0) target_len = max_len;
  APF_CHECK(target_len >= max_len,
            "InferenceEngine::prepare: target length "
                << target_len << " would drop tokens (longest sequence is "
                << max_len << "); dropping belongs to the patch stage");
  // Pad only the short sequences; already-long ones are stacked in place
  // through the pointer form of make_batch (no copies on the hot path).
  std::vector<core::PatchSequence> padded;
  padded.reserve(seqs.size());
  std::vector<const core::PatchSequence*> ptrs;
  ptrs.reserve(seqs.size());
  for (const core::PatchSequence& s : seqs) {
    if (s.length() == target_len) {
      ptrs.push_back(&s);
    } else {
      padded.push_back(core::fit_to_length(
          s, target_len, /*drop_coarsest_first=*/true, nullptr));
      ptrs.push_back(&padded.back());
    }
  }
  return core::make_batch(ptrs);
}

Tensor InferenceEngine::forward(const core::TokenBatch& batch) const {
  APF_CHECK(batch.batch() > 0, "InferenceEngine::forward: empty batch");
  // Only toggle train/eval when needed: serve::Server parks the shared
  // model in eval mode before its workers start, so concurrent forwards
  // never write Module state.
  std::optional<nn::EvalGuard> eval;
  if (model_.training()) eval.emplace(model_);
  NoGradGuard no_grad;
  // Grad-free activations for this batch live in the thread-local bump
  // arena: hundreds of intermediates become pointer bumps, reclaimed in
  // one cursor reset when the scope closes. The logits escape the scope,
  // so they are deep-copied to heap ownership first (arena.h escape rule)
  // — the pause guard routes that clone back to the heap.
  ArenaScope arena;
  Rng rng(0x5eed);  // read only by dropout, which eval mode switches off
  Var logits = model_.forward(batch, rng);  // [B, C, Z, Z]
  APF_CHECK(logits.val().ndim() == 4 && logits.size(0) == batch.batch(),
            "InferenceEngine: model returned " << logits.val().str()
                                               << " for a batch of "
                                               << batch.batch());
  ArenaPauseGuard heap;
  return logits.val().clone();
}

std::vector<img::Image> InferenceEngine::decode(const Tensor& logits) const {
  APF_CHECK(logits.defined() && logits.ndim() == 4,
            "InferenceEngine::decode: need [B, C, Z, Z] logits");
  const std::int64_t bsz = logits.size(0), chans = logits.size(1);
  const std::int64_t zh = logits.size(2), zw = logits.size(3);
  // The sigmoid cutoff is applied in logit space:
  // P(fg) > t  <=>  logit > log(t / (1 - t)).
  const float logit_cut =
      std::log(cfg_.mask_threshold / (1.f - cfg_.mask_threshold));
  std::vector<img::Image> masks;
  masks.reserve(static_cast<std::size_t>(bsz));
  const float* pl = logits.data();
  for (std::int64_t i = 0; i < bsz; ++i) {
    img::Image mask(zh, zw, 1);
    const float* item = pl + i * chans * zh * zw;
    for (std::int64_t px = 0; px < zh * zw; ++px) {
      if (chans == 1) {
        mask.data[static_cast<std::size_t>(px)] =
            item[px] > logit_cut ? 1.f : 0.f;
      } else {
        std::int64_t best = 0;
        for (std::int64_t ch = 1; ch < chans; ++ch)
          if (item[ch * zh * zw + px] > item[best * zh * zw + px]) best = ch;
        mask.data[static_cast<std::size_t>(px)] = static_cast<float>(best);
      }
    }
    masks.push_back(std::move(mask));
  }
  return masks;
}

double InferenceEngine::flops_for_tokens(std::int64_t valid_tokens) const {
  if (valid_tokens <= 0) return 0.0;
  dist::VitSpec spec = model_.encoder_spec();
  if (spec.d_model <= 0) return 0.0;
  spec.seq_len = valid_tokens;
  return dist::vit_flops_per_image(spec);
}

std::optional<InferenceResult> InferenceEngine::admit(
    const img::Image& image, PatchedImage& item) const {
  const auto t0 = Clock::now();
  if (cache_) {
    // Content-addressed result reuse. Safe bitwise because the forward
    // computes each image from its own valid tokens only (padded-length
    // independence), so a stored result carries the exact bits a
    // recompute would produce, whatever batch either rode in.
    const core::Digest128 key = InferenceCache::image_key(image);
    if (std::optional<CachedResult> hit = cache_->get_result(
            InferenceCache::result_key(fingerprint_, key))) {
      InferenceResult out;
      out.logits = std::move(hit->logits);  // deep-copied out by the cache
      out.masks.push_back(std::move(hit->mask));
      InferenceStats& s = out.stats;
      s.images = 1;
      s.tokens = hit->valid_tokens;  // no new compute: model_flops stays 0
      s.result_cache_hits = 1;
      s.gemm_backend = active_gemm_backend().name();
      s.total_seconds = seconds_since(t0);
      return out;
    }
    item.image_key = key;
  }
  patch_into(image, item);
  item.patch_seconds = seconds_since(t0);
  return std::nullopt;
}

std::vector<InferenceResult> InferenceEngine::complete(
    std::vector<PatchedImage> items, std::int64_t target_len) const {
  const auto t0 = Clock::now();
  std::vector<core::PatchSequence> seqs;
  seqs.reserve(items.size());
  for (PatchedImage& item : items) seqs.push_back(std::move(item.seq));
  const core::TokenBatch tb = prepare(seqs, target_len);
  const Tensor logits = forward(tb);  // [n, C, Z, Z]
  const double forward_seconds = seconds_since(t0);
  std::vector<img::Image> masks = decode(logits);

  const std::int64_t n = static_cast<std::int64_t>(items.size());
  const std::int64_t per_image = logits.numel() / n;
  const std::string backend = active_gemm_backend().name();
  std::vector<InferenceResult> results(items.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const PatchedImage& item = items[u];
    InferenceResult& out = results[u];
    out.logits = Tensor({1, logits.size(1), logits.size(2), logits.size(3)});
    std::copy(logits.data() + i * per_image,
              logits.data() + (i + 1) * per_image, out.logits.data());
    out.masks.push_back(std::move(masks[u]));

    const std::int64_t valid = seqs[u].num_valid();
    InferenceStats& s = out.stats;
    s.images = 1;
    s.batches = 1;
    s.batch_size = n;
    s.tokens = valid;
    s.padded_tokens = tb.length() - valid;
    s.patch_seconds = item.patch_seconds;
    s.forward_seconds = forward_seconds;
    s.gemm_backend = backend;
    // Delivered encoder compute: the serving path skips padding
    // everywhere (fused attention + mask-aware dense layers), so each
    // image costs its VALID token count, not the padded batch length.
    s.model_flops = flops_for_tokens(valid);
    if (cache_) {
      // An item reaching complete() missed the result tier by definition;
      // the patch-tier outcome rode in from admit().
      s.patch_cache_hits = item.patch_cache_hit ? 1 : 0;
      s.patch_cache_misses = item.patch_cache_hit ? 0 : 1;
      s.result_cache_misses = 1;
      if (item.image_key) {
        // put_result deep-copies, so the caller keeps sole ownership.
        CachedResult value;
        value.logits = out.logits;
        value.mask = out.masks[0];
        value.valid_tokens = valid;
        cache_->put_result(
            InferenceCache::result_key(fingerprint_, *item.image_key), value);
      }
    }
    s.total_seconds = s.patch_seconds + seconds_since(t0);
  }
  return results;
}

InferenceResult InferenceEngine::run(
    const std::vector<img::Image>& images) const {
  APF_CHECK(!images.empty(), "InferenceEngine::run: empty image batch");
  const auto t_start = Clock::now();

  // Validate geometry (with indices) and batch homogeneity up front.
  for (std::size_t i = 0; i < images.size(); ++i) {
    validate_image(images[i], static_cast<std::int64_t>(i));
    APF_CHECK(images[i].h == images[0].h && images[i].c == images[0].c,
              "InferenceEngine::run: image " << i << " is " << images[i].h
                                             << "x" << images[i].w << "x"
                                             << images[i].c
                                             << " but the batch started with "
                                             << images[0].h << "x"
                                             << images[0].w << "x"
                                             << images[0].c);
  }

  // Admit every image: result-tier hits come back finished, misses patched.
  std::vector<std::optional<InferenceResult>> done(images.size());
  std::vector<PatchedImage> misses;
  std::vector<std::size_t> miss_idx;  // parallel to misses
  std::int64_t target = cfg_.patcher.seq_len;
  for (std::size_t i = 0; i < images.size(); ++i) {
    PatchedImage item;
    done[i] = admit(images[i], item);
    if (done[i]) continue;
    target = std::max(target, item.seq.length());
    misses.push_back(std::move(item));
    miss_idx.push_back(i);
  }

  // Complete the misses in max_batch chunks, every chunk squared to one
  // target for the whole call: the configured budget when seq_len > 0,
  // else the longest miss. The target never changes any image's bits
  // (padded-length independence), only the padding accounting.
  InferenceResult out;
  const auto miss_count = static_cast<std::int64_t>(misses.size());
  for (std::int64_t off = 0; off < miss_count; off += cfg_.max_batch) {
    const std::int64_t end = std::min(miss_count, off + cfg_.max_batch);
    std::vector<InferenceResult> chunk =
        complete({std::make_move_iterator(misses.begin() + off),
                  std::make_move_iterator(misses.begin() + end)},
                 target);
    out.stats.batches += 1;
    out.stats.forward_seconds += chunk[0].stats.forward_seconds;
    for (std::int64_t j = off; j < end; ++j)
      done[miss_idx[static_cast<std::size_t>(j)]] =
          std::move(chunk[static_cast<std::size_t>(j - off)]);
  }

  // Stack the per-image results in input order.
  const Tensor& first = done[0]->logits;  // [1, C, Z, Z]
  const std::int64_t per_image = first.numel();
  out.logits = Tensor({static_cast<std::int64_t>(images.size()),
                       first.size(1), first.size(2), first.size(3)});
  float* dst = out.logits.data();
  for (std::optional<InferenceResult>& r : done) {
    std::copy(r->logits.data(), r->logits.data() + per_image, dst);
    dst += per_image;
    out.masks.push_back(std::move(r->masks[0]));
    out.stats.add_request(r->stats);
  }
  out.stats.total_seconds = seconds_since(t_start);
  return out;
}

img::Image InferenceEngine::predict_mask(const img::Image& image) const {
  return run({image}).masks[0];
}

}  // namespace apf::serve
