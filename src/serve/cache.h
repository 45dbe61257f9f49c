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
//   ResultCache  hash(result_fingerprint, image_hash, backend_class)
//                -> CachedResult  (exact duplicates skip the forward)
//
// Key derivation (core/hash.h, seeded + platform-stable):
//   image_hash          = H(h, w, c, pixel bits)
//   patch_fingerprint   = H(every ApfConfig field)
//   result_fingerprint  = H(patch_fp, model identity: expected size +
//                           encoder spec + every parameter's shape and
//                           value bits, mask_threshold)
//   backend_class       = "bitwise-exact" when the active gemm backend
//                         certifies bitwise_exact() (reference and avx2
//                         are mutually bitwise-identical, so they SHARE
//                         entries), else the backend's name (fma is
//                         tolerance-grade and must not cross-hit).
//
// Bitwise contract: a hit returns output bitwise identical to the cold
// path. This is safe because the engine's forward computes each image
// from its own valid tokens only (padded-length independence, pinned
// since PR 2) and because the key pins everything the bits depend on.
// Entries deep-copy IN under an ArenaPauseGuard (pause+clone — values
// must outlive any live ArenaScope) and deep-copy OUT on result hits
// (callers own their logits and may mutate them).
//
// Concurrency: N shards, each a byte-accounted LRU under its own
// apf::Mutex (TSA-annotated; see cache.cpp). A shard lock is the only
// lock any cache operation holds, and never while calling out, so the
// cache adds no edges to the process lock-order graph.

#include <cstdint>
#include <memory>
#include <optional>

#include "core/apf_config.h"
#include "core/hash.h"
#include "img/image.h"
#include "models/patcher.h"
#include "models/segmodel.h"

namespace apf::serve {

/// Cache knobs, embedded in ServerConfig. capacity_bytes == 0 disables
/// caching entirely (the default: serving behavior is unchanged unless
/// asked for). Validated by InferenceCache's constructor: shards must be
/// positive, capacity_bytes non-negative.
struct CacheConfig {
  /// Total byte budget across both tiers (split evenly over shards,
  /// per tier). 0 = caching disabled.
  std::int64_t capacity_bytes = 0;
  bool patch_tier = true;   ///< cache unpadded PatchSequences
  bool result_tier = true;  ///< cache whole per-image results
  int shards = 8;           ///< independent LRU shards per tier
  /// Seed for every content hash; rotating it invalidates all keys.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  bool enabled() const {
    return capacity_bytes > 0 && (patch_tier || result_tier);
  }
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
/// `patch` covers the patcher config alone (the patch tier is backend-
/// and model-independent); `result` extends it with model identity and
/// the decode threshold. The gemm-backend class is mixed in per lookup,
/// not here, because the active backend can change at runtime.
struct EngineFingerprint {
  core::Digest128 patch;
  core::Digest128 result;
};

/// Hashes the full serving identity: every ApfConfig field, the model's
/// expected geometry + encoder spec + every parameter tensor (shape and
/// value bits), and the decode threshold. Deterministic and seeded;
/// computed once per engine when a cache is attached.
EngineFingerprint compute_engine_fingerprint(
    const models::TokenSegModel& model, const core::ApfConfig& patcher,
    float mask_threshold, std::uint64_t seed);

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
  explicit InferenceCache(CacheConfig cfg);
  ~InferenceCache();
  InferenceCache(const InferenceCache&) = delete;
  InferenceCache& operator=(const InferenceCache&) = delete;

  const CacheConfig& config() const { return cfg_; }
  bool patch_tier_enabled() const;
  bool result_tier_enabled() const;

  /// Content hash of one image (dims + pixel bits) under the cache seed.
  core::Digest128 image_key(const img::Image& image) const;

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
  CacheConfig cfg_;
  std::unique_ptr<detail::LruTier<core::PatchSequence>> patch_tier_;
  std::unique_ptr<detail::LruTier<CachedResult>> result_tier_;
};

}  // namespace apf::serve
