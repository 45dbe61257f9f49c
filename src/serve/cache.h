#pragma once
// Content-addressed inference cache: sharded, size-bounded LRU reuse of
// serving work between the staged engine's patch() and prepare().
//
// Repeated WSI tiles are the common case at scale — background and
// low-detail tiles recur across slides and users — yet a cold submit()
// re-runs patch -> prepare -> forward -> decode from scratch. The cache
// keys finished work by *content* so exact duplicates skip stages:
//
//   PatchCache   combine(image_hash, patch_fingerprint) -> PatchSequence
//                (warm requests skip stage-1 patching entirely)
//   ResultCache  combine(result_fingerprint, image_hash) -> CachedResult
//                (exact duplicates skip the forward)
//
// Key derivation (core/hash.h, platform-stable, under one fixed seed
// private to cache.cpp):
//   image_hash          = H(h, w, c, pixel bits)
//   patch_fingerprint   = H(every ApfConfig field)
//   result_fingerprint  = H(patch_fp, model identity: expected size +
//                           encoder spec + every parameter's and every
//                           buffer's shape and value bits, mask_threshold)
// No key names the gemm backend: every backend computes the same bits
// (tensor/gemm.h), so entries are shared across a backend switch.
//
// Bitwise contract: a hit returns output bitwise identical to the cold
// path. This is safe because the engine's forward computes each image
// from its own valid tokens only (padded-length independence, pinned
// since PR 2) and because the key pins everything the bits depend on.
// Entries deep-copy IN under an ArenaPauseGuard (pause+clone — values
// must outlive any live ArenaScope) and deep-copy OUT on result hits
// (callers own their logits and may mutate them).
//
// Concurrency: each tier is InferenceCache::kShards byte-accounted LRU
// shards, each under its own apf::Mutex (TSA-annotated; see cache.cpp). A
// shard lock is the only lock any cache operation holds, and never while
// calling out, so the cache adds no edges to the process lock-order graph.

#include <cstdint>
#include <memory>
#include <optional>

#include "core/apf_config.h"
#include "core/hash.h"
#include "img/image.h"
#include "models/patcher.h"
#include "models/segmodel.h"

namespace apf::serve {

/// The cache's one knob, embedded in ServerConfig (where 0, the default,
/// means no cache). InferenceCache's constructor rejects a budget <= 0.
struct CacheConfig {
  /// Byte budget of EACH tier, split evenly over InferenceCache::kShards
  /// shards: a full cache holds up to twice this many bytes.
  std::int64_t capacity_bytes = 0;
};

/// Monotonic counters + current gauges for one tier. Counters only ever
/// grow; entries/bytes are point-in-time gauges.
struct CacheTierStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::int64_t entries = 0;  ///< gauge
  std::int64_t bytes = 0;    ///< gauge
  double hit_rate() const {
    const std::int64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
};

struct CacheStats {
  CacheTierStats patch;
  CacheTierStats result;
  std::int64_t total_bytes() const { return patch.bytes + result.bytes; }
  std::int64_t total_evictions() const {
    return patch.evictions + result.evictions;
  }
};

/// One finished per-image inference, as stored by the result tier.
/// logits is [1, C, Z, Z]; mask is the decoded pixel mask. valid_tokens
/// lets a hit report the token count a cold run would have, without
/// recomputing the quadtree (a hit delivers no new compute, so no FLOPs).
struct CachedResult {
  Tensor logits;
  img::Image mask;
  std::int64_t valid_tokens = 0;
};

/// Everything a cache key must pin about the serving configuration.
/// `patch` covers the patcher config alone (the patch tier is
/// model-independent); `result` extends it with model identity and the
/// decode threshold.
struct EngineFingerprint {
  core::Digest128 patch;
  core::Digest128 result;
};

/// Hashes the full serving identity: every ApfConfig field, the model's
/// expected geometry + encoder spec + every parameter and buffer tensor
/// (shape and value bits), and the decode threshold. Deterministic;
/// computed once per engine when it is built with a cache.
EngineFingerprint compute_engine_fingerprint(
    const models::TokenSegModel& model, const core::ApfConfig& patcher,
    float mask_threshold);

namespace detail {
template <typename V>
class LruTier;  // sharded byte-accounted LRU; defined in cache.cpp
}  // namespace detail

/// The two-tier cache. Thread-safe: every method may be called from any
/// thread (serve workers, client submit threads, stats readers); methods
/// are logically const — internal synchronization only, no caller-visible
/// mutation beyond the cache contents themselves.
class InferenceCache {
 public:
  /// LRU shards per tier; a key's shard is key.lo % kShards.
  static constexpr int kShards = 8;

  /// Throws detail::CheckError unless cfg.capacity_bytes > 0.
  explicit InferenceCache(CacheConfig cfg);
  ~InferenceCache();
  InferenceCache(const InferenceCache&) = delete;
  InferenceCache& operator=(const InferenceCache&) = delete;

  /// Content hash of one image (dims + pixel bits).
  static core::Digest128 image_key(const img::Image& image);
  /// Patch-tier key of an image under an engine's fingerprint.
  static core::Digest128 patch_key(const EngineFingerprint& fp,
                                   const core::Digest128& image_key);
  /// Result-tier key of an image under an engine's fingerprint.
  static core::Digest128 result_key(const EngineFingerprint& fp,
                                    const core::Digest128& image_key);

  /// Patch tier. get returns shared Tensor handles (sequences are
  /// treated as immutable by every consumer — prepare() copies). put
  /// deep-copies the sequence to heap storage (pause+clone) so the
  /// entry outlives any live ArenaScope.
  std::optional<core::PatchSequence> get_patch(
      const core::Digest128& key) const;
  void put_patch(const core::Digest128& key,
                 const core::PatchSequence& seq) const;

  /// Result tier. get deep-copies OUT (callers own the returned logits
  /// and may mutate them); put deep-copies IN (pause+clone).
  std::optional<CachedResult> get_result(const core::Digest128& key) const;
  void put_result(const core::Digest128& key,
                  const CachedResult& value) const;

  /// Point-in-time counters + gauges, summed over shards. Locks shards
  /// one at a time, so concurrent mutators may land between shards —
  /// each counter is exact, the set is approximately simultaneous.
  CacheStats stats() const;

  /// Byte accounting charged per entry (payload + bookkeeping estimate);
  /// exposed so tests can pin the arithmetic.
  static std::int64_t patch_entry_bytes(const core::PatchSequence& seq);
  static std::int64_t result_entry_bytes(const CachedResult& value);

 private:
  std::unique_ptr<detail::LruTier<core::PatchSequence>> patch_tier_;
  std::unique_ptr<detail::LruTier<CachedResult>> result_tier_;
};

}  // namespace apf::serve
