#pragma once
// Grad-free batched inference — the serving spine of the library.
//
// The engine is a pipeline of explicit stages so a scheduler
// (serve/server.h) can re-group work between them:
//
//   patch()    image -> PatchSequence   (edge map + quadtree + resample;
//                                        UNPADDED — over-budget sequences
//                                        are dropped to the token budget,
//                                        short ones keep natural length)
//   prepare()  sequences -> TokenBatch  (pad to a common target length and
//                                        stack; padding only, never drops)
//   forward()  TokenBatch -> logits     (eval + NoGrad fused forward)
//   decode()   logits -> pixel masks    (sigmoid threshold / argmax)
//
// Every entry point goes through two per-request stages built on them:
//
//   admit()    content key -> result-tier lookup (a hit is returned
//              finished) -> patch through the patch tier
//   complete() prepare -> forward -> decode -> per-request stats and
//              result-tier store, for a batch of admitted misses
//
// The entry points validate each image once, up front (validate_image);
// admit() and complete() trust their inputs. run() is the serial loop over
// them and serve::Server the async one (submit() admits, workers complete,
// all on one shared engine), so the server matches run() bitwise by
// construction: the grad-free forward computes each image from its own
// valid tokens only (fused masked attention + mask-aware dense layers +
// per-item scatter), so an image's logits do not depend on which batch it
// rode in or how far it was padded.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/apf_config.h"
#include "models/patcher.h"
#include "img/image.h"
#include "models/segmodel.h"
#include "serve/cache.h"

namespace apf {

/// The forward's numeric precision. fp32 is the only one: the enum and
/// EngineConfig::precision remain so callers that set them
/// (perfbench/servebench.cpp) still compile. Nothing reads either.
enum class Precision { kFp32 };

}  // namespace apf

namespace apf::serve {

/// Serving configuration: the patching schedule plus batching knobs.
/// Validated when the InferenceEngine is constructed: max_batch must be
/// positive, mask_threshold within [0, 1] (0 marks every pixel foreground,
/// 1 marks none), and the patcher's seq_len non-negative (0 = variable
/// length).
struct EngineConfig {
  core::ApfConfig patcher;      ///< adaptive-patching pipeline settings;
                                ///< seq_len > 0 gives fixed-length batches
  std::int64_t max_batch = 8;   ///< images per model call (chunked above)
  float mask_threshold = 0.5f;  ///< binary: P(foreground) cutoff for masks
  Precision precision = Precision::kFp32;  ///< unread; see Precision
};

/// Throughput accounting: per run() call, per server request, or
/// aggregated over a server's lifetime (serve::Server::stats).
struct InferenceStats {
  std::int64_t images = 0;
  std::int64_t batches = 0;        ///< model calls issued
  std::int64_t tokens = 0;         ///< valid (non-padding) tokens fed in
  std::int64_t padded_tokens = 0;  ///< padding added to square the batches
  /// Size of the dynamic batch a request was coalesced into. Only set on
  /// per-request server stats; 0 on the serial path.
  std::int64_t batch_size = 0;
  /// Requests already pending when this one was admitted. Per-request
  /// server stats hold that request's own depth; aggregate server stats
  /// hold the sum over requests (see avg_queue_depth()). 0 on the serial
  /// path.
  std::int64_t queue_depth = 0;
  /// Unified-scheduler activity over the stats window (server aggregate
  /// only; the process-wide counters of core/thread_pool.h diffed
  /// against the server's construction-time snapshot, so concurrent
  /// non-server work in the same process is included). Steals are job
  /// acquisitions from a foreign deque or the shared inbox; tasks are
  /// counted per chunk by kind (kForward = one worker's run-to-completion
  /// drain, which may cover several consecutive batches — or none, when
  /// its pop lost a race; kPanel = gemm panels / parallel_for chunks).
  /// Tasks count every chunk of a parallel REGION, including regions that
  /// ran inline at width 1, so the numbers describe the submitted work
  /// independent of thread count. Work that never forms a region — a
  /// gemm below its flops floor, a parallel_for below its grain — is not
  /// counted; on a 1-core host that legitimately leaves panel_tasks at 0
  /// while forward_tasks still tally the server's drains.
  std::uint64_t scheduler_steals = 0;
  std::uint64_t forward_tasks = 0;
  std::uint64_t panel_tasks = 0;
  /// Dynamic batch size distribution: size -> number of batches flushed
  /// at that size (server aggregate only).
  std::map<std::int64_t, std::int64_t> batch_size_counts;
  /// Content-cache activity (serve/cache.h). On per-run()/per-request
  /// stats these count that call's own lookups; on server aggregates
  /// they are the shared cache's lifetime totals. All zero when no cache
  /// is attached.
  std::int64_t patch_cache_hits = 0;
  std::int64_t patch_cache_misses = 0;
  std::int64_t result_cache_hits = 0;
  std::int64_t result_cache_misses = 0;
  std::int64_t cache_evictions = 0;  ///< both tiers (server aggregate only)
  std::int64_t cache_bytes = 0;      ///< gauge: bytes held (aggregate only)
  double patch_seconds = 0.0;      ///< edge map + quadtree + resample
  double queue_seconds = 0.0;      ///< waiting for a batch slot (server)
  double forward_seconds = 0.0;    ///< model time under NoGradGuard
  double total_seconds = 0.0;
  /// Active gemm backend name (tensor/gemm_backend.h) during the forward.
  std::string gemm_backend;
  /// Analytical encoder FLOPs actually delivered: the sum over images of
  /// dist::vit_flops_per_image at each image's VALID token count (the
  /// fused attention + mask-aware dense layers skip padding, so padded
  /// tokens do not count). 0 when the model reports no encoder_spec.
  double model_flops = 0.0;
  double images_per_sec() const {
    return total_seconds > 0.0 ? images / total_seconds : 0.0;
  }
  /// Delivered encoder compute throughput over the grad-free forward.
  double model_gflops_per_sec() const {
    return forward_seconds > 0.0 ? model_flops / forward_seconds / 1e9 : 0.0;
  }
  /// Mean queue depth seen at admission (0 when nothing completed).
  double avg_queue_depth() const {
    return images > 0 ? static_cast<double>(queue_depth) / images : 0.0;
  }
  /// Fraction of fed tokens that were padding (0 when nothing was fed).
  double padding_ratio() const {
    const std::int64_t total = tokens + padded_tokens;
    return total > 0 ? static_cast<double>(padded_tokens) / total : 0.0;
  }
  /// Fraction of result-tier lookups that hit (0 when none were made).
  double result_cache_hit_rate() const {
    const std::int64_t lookups = result_cache_hits + result_cache_misses;
    return lookups > 0 ? static_cast<double>(result_cache_hits) / lookups
                       : 0.0;
  }
  /// Folds one request's stats into this total: sums its per-request
  /// counters and patch/queue seconds, takes its backend.
  /// Per-batch fields (batches, forward_seconds, batch_size_counts) and
  /// the wall-clock total_seconds are the caller's.
  void add_request(const InferenceStats& request);
};

/// Output of one run() / one server request: pixel-space logits and
/// decoded masks.
struct InferenceResult {
  Tensor logits;  ///< [B, C, Z, Z] (C = model out_channels)
  /// Per-image single-channel masks in pixel space: binary 0/1 for C == 1
  /// (sigmoid threshold), argmax class index for C > 1.
  std::vector<img::Image> masks;
  InferenceStats stats;
};

/// One admitted request that missed the result tier: its unpadded
/// sequence plus what complete() needs to finish it.
struct PatchedImage {
  core::PatchSequence seq;
  /// The image's content key, set when the engine has a cache, so complete()
  /// stores the result without hashing the pixels again.
  std::optional<core::Digest128> image_key;
  bool patch_cache_hit = false;  ///< patching hit the patch tier
  double patch_seconds = 0.0;    ///< admit() time: key + patch
};

/// Staged grad-free inference over a token segmentation model.
///
/// Thread-safety: the engine is immutable after construction and every
/// method is const, so any number of threads may call any of them at once
/// — serve::Server runs its admit stage and all its workers on one engine.
/// The one write is to the model: forward() switches a model in training
/// mode to eval for the call and back, so concurrent callers need the
/// model parked in eval first (Server does this; the grad-free forward
/// then only reads the model). The cache synchronizes internally.
class InferenceEngine {
 public:
  /// The engine borrows the model; the caller keeps it alive. With a
  /// cache (serve/cache.h), which may be shared with other engines,
  /// admit() and patch() consult it and complete() fills it; every output
  /// stays bitwise identical to a cacheless engine's. Throws
  /// detail::CheckError when cfg is invalid (see EngineConfig).
  InferenceEngine(models::TokenSegModel& model, EngineConfig cfg,
                  std::shared_ptr<InferenceCache> cache = nullptr);

  // ------------------------------------------------------------- stages

  /// Stage 1 — patch one image deterministically (no rng: coarsest-first
  /// drop). The result is UNPADDED: sequences over the configured token
  /// budget are dropped down to it, shorter ones keep their natural
  /// length, so a scheduler can bucket by true length and pad only to the
  /// bucket. Throws detail::CheckError when the image does not match the
  /// model's expected square geometry (validate_image). Consults the patch
  /// tier when the engine has a cache.
  core::PatchSequence patch(const img::Image& image) const;

  /// Pads every sequence (zero tokens, mask 0) to target_len and stacks
  /// them into one TokenBatch. target_len == 0 uses the longest sequence
  /// in the group. Padding only: throws when target_len would drop tokens.
  static core::TokenBatch prepare(const std::vector<core::PatchSequence>& seqs,
                                  std::int64_t target_len = 0);

  /// Stage 2 — grad-free forward of one prepared batch: [B, L, D] tokens
  /// -> [B, C, Z, Z] logits. Forces eval mode for the call (and restores
  /// it) only when the model is in training mode; serve::Server parks the
  /// model in eval once so its workers never toggle shared state.
  /// Intermediate activations live in the calling thread's ArenaScope
  /// (tensor/arena.h) for the duration of the call; the returned logits
  /// are deep-copied to ordinary heap ownership, so callers may hold them
  /// indefinitely.
  Tensor forward(const core::TokenBatch& batch) const;

  /// Stage 3 — decode pixel-space masks from logits: sigmoid threshold in
  /// logit space for binary heads (C == 1), per-pixel argmax otherwise.
  std::vector<img::Image> decode(const Tensor& logits) const;

  // ------------------------------------------------ per-request stages

  /// Front half of one request: computes the image's content key and
  /// looks up the result tier (with a cache), then patches through the
  /// patch tier. A result-tier hit returns the finished result ([1, C, Z,
  /// Z] logits, one mask, hit stats; bitwise equal to a cold one) and
  /// leaves `item` untouched; otherwise fills `item` and returns nullopt.
  /// The caller has validated the image (validate_image), as complete()
  /// trusts its items.
  std::optional<InferenceResult> admit(const img::Image& image,
                                       PatchedImage& item) const;

  /// Back half of a batch of admitted requests: prepare (padded to
  /// target_len; 0 = the longest item) -> forward -> decode. Returns one
  /// result per item, in order, with [1, C, Z, Z] logits, one mask and
  /// per-request stats (images = batches = 1, batch_size = the item
  /// count, forward_seconds = the batch's forward time), and stores each
  /// in the result tier when the engine has a cache.
  std::vector<InferenceResult> complete(std::vector<PatchedImage> items,
                                        std::int64_t target_len = 0) const;

  // ---------------------------------------------------- composed serial

  /// Full pipeline for a batch of images: admit every image, then
  /// complete the misses in max_batch chunks, each padded to one length
  /// for the whole call (the configured seq_len, or the longest miss when
  /// that is longer), and stack the results in input order. Deterministic:
  /// repeated calls on the same inputs are bitwise identical, and equal to
  /// the taped forward's values.
  InferenceResult run(const std::vector<img::Image>& images) const;

  /// Single-image convenience wrapper around run().
  img::Image predict_mask(const img::Image& image) const;

  /// Throws detail::CheckError naming index and shape when the image is
  /// not square, does not match the model's expected_image_size(), its
  /// channel count disagrees with the model's token dimension, its pixel
  /// buffer does not hold exactly h * w * c values, or a pixel is NaN or
  /// infinite. index < 0 omits the index from the message (single-image
  /// call sites).
  void validate_image(const img::Image& image, std::int64_t index = -1) const;

  /// Analytical encoder FLOPs for one image with the given valid-token
  /// count (0 when the model reports no encoder_spec).
  double flops_for_tokens(std::int64_t valid_tokens) const;

  const EngineConfig& config() const { return cfg_; }

  /// The engine's cache; nullptr when it was built without one.
  const std::shared_ptr<InferenceCache>& cache() const { return cache_; }

 private:
  /// Patches a validated image through the patch tier when the engine has
  /// a cache, computing item.image_key first if it is unset.
  void patch_into(const img::Image& image, PatchedImage& item) const;

  models::TokenSegModel& model_;
  const EngineConfig cfg_;
  const core::AdaptivePatcher patcher_;
  const std::shared_ptr<InferenceCache> cache_;  ///< may be shared; may be null
  const EngineFingerprint fingerprint_;          ///< meaningful with a cache
};

}  // namespace apf::serve
