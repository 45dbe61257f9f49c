#include "serve/cache.h"

#include <cstring>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/thread_annotations.h"
#include "tensor/arena.h"

namespace apf::serve {

namespace detail {

/// Sharded, byte-accounted LRU. Each shard owns its own mutex, list and
/// index; a key maps to exactly one shard (key.lo % kShards), so every
/// operation takes exactly one lock and never holds it across a call
/// out — the cache contributes no edges to the lock-order graph.
///
/// The index is a std::map (deterministic iteration; apf-lint bans
/// unordered containers without a waiver and the cache does not need
/// one: lookups are O(log n) on a shard that stays small). Recency
/// order lives in the list: front = most recently used, evict from the
/// back until the shard is under budget.
template <typename V>
class LruTier {
 public:
  explicit LruTier(std::int64_t capacity_bytes)
      : shard_capacity_((capacity_bytes + InferenceCache::kShards - 1) /
                        InferenceCache::kShards) {
    shards_.reserve(InferenceCache::kShards);
    for (int i = 0; i < InferenceCache::kShards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  std::optional<V> get(const core::Digest128& key) {
    Shard& s = shard_for(key);
    MutexLock lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      ++s.misses;
      return std::nullopt;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    ++s.hits;
    return it->second->value;
  }

  void put(const core::Digest128& key, V value, std::int64_t bytes) {
    // An entry larger than a whole shard could never coexist with the
    // budget; skip it instead of inserting and instantly evicting.
    if (bytes > shard_capacity_) return;
    Shard& s = shard_for(key);
    MutexLock lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      // Same key, racing inserters (or a re-run): refresh in place.
      s.bytes += bytes - it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return;
    }
    s.lru.push_front(Entry{key, std::move(value), bytes});
    s.index.emplace(key, s.lru.begin());
    s.bytes += bytes;
    ++s.insertions;
    while (s.bytes > shard_capacity_) {
      Entry& victim = s.lru.back();
      s.bytes -= victim.bytes;
      s.index.erase(victim.key);
      s.lru.pop_back();
      ++s.evictions;
    }
  }

  CacheTierStats stats() const {
    CacheTierStats out;
    for (const auto& sp : shards_) {
      Shard& s = *sp;
      MutexLock lock(s.mu);
      out.hits += s.hits;
      out.misses += s.misses;
      out.insertions += s.insertions;
      out.evictions += s.evictions;
      out.entries += static_cast<std::int64_t>(s.index.size());
      out.bytes += s.bytes;
    }
    return out;
  }

 private:
  struct Entry {
    core::Digest128 key;
    V value;
    std::int64_t bytes = 0;
  };
  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru APF_GUARDED_BY(mu);
    std::map<core::Digest128, typename std::list<Entry>::iterator> index
        APF_GUARDED_BY(mu);
    std::int64_t bytes APF_GUARDED_BY(mu) = 0;
    std::int64_t hits APF_GUARDED_BY(mu) = 0;
    std::int64_t misses APF_GUARDED_BY(mu) = 0;
    std::int64_t insertions APF_GUARDED_BY(mu) = 0;
    std::int64_t evictions APF_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const core::Digest128& key) {
    return *shards_[static_cast<std::size_t>(key.lo % shards_.size())];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::int64_t shard_capacity_;
};

template class LruTier<core::PatchSequence>;
template class LruTier<CachedResult>;

namespace {

/// Seed of every content hash the cache keys on.
constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

/// Fixed per-entry bookkeeping charge: list/map nodes, metadata structs,
/// tensor headers. An estimate — the budget bounds payload bytes, which
/// dominate; the charge just keeps many tiny entries from reading as free.
constexpr std::int64_t kEntryOverheadBytes = 256;

/// Feed a float buffer as its IEEE-754 byte stream. On the little-endian
/// hosts this library targets the in-memory bytes ARE the canonical LE
/// bit-pattern stream (identical to per-element update_f32), so the raw
/// buffer is hashed in one pass.
void update_f32_buffer(core::Hasher& h, const float* p, std::size_t n) {
  h.update(p, n * sizeof(float));
}

core::PatchSequence clone_sequence(const core::PatchSequence& seq) {
  core::PatchSequence out;
  if (seq.tokens.defined()) out.tokens = seq.tokens.clone();
  if (seq.mask.defined()) out.mask = seq.mask.clone();
  out.meta = seq.meta;
  out.image_size = seq.image_size;
  out.patch_size = seq.patch_size;
  out.channels = seq.channels;
  return out;
}

}  // namespace

}  // namespace detail

EngineFingerprint compute_engine_fingerprint(
    const models::TokenSegModel& model, const core::ApfConfig& patcher,
    float mask_threshold) {
  core::Hasher h(detail::kSeed);
  h.update_str("apf-engine-fingerprint-v1");

  // Patcher identity: every ApfConfig field, in declaration order.
  h.update_u32(static_cast<std::uint32_t>(patcher.gaussian_ksize));
  h.update_f32(patcher.gaussian_sigma);
  h.update_f32(patcher.canny_low);
  h.update_f32(patcher.canny_high);
  h.update_f64(patcher.split_value);
  h.update_u32(static_cast<std::uint32_t>(patcher.max_depth));
  h.update_i64(patcher.min_patch);
  h.update_u32(patcher.enforce_balance ? 1u : 0u);
  h.update_i64(patcher.patch_size);
  h.update_i64(patcher.seq_len);
  h.update_u32(patcher.drop_coarsest_first ? 1u : 0u);

  EngineFingerprint fp;
  fp.patch = h.digest();  // prefix digest: patch tier stops here

  // Model identity: geometry, analytic shape, then every parameter's and
  // every buffer's shape and value bits — two models agree only if their
  // weights and batch-norm running statistics do.
  h.update_str("model");
  h.update_i64(model.expected_image_size());
  const dist::VitSpec spec = model.encoder_spec();
  h.update_i64(spec.token_dim);
  h.update_i64(spec.d_model);
  h.update_i64(spec.depth);
  h.update_i64(spec.heads);
  h.update_i64(spec.mlp_ratio);
  const auto update_tensor = [&h](const Tensor& t) {
    h.update_u64(static_cast<std::uint64_t>(t.ndim()));
    for (std::int64_t i = 0; i < t.ndim(); ++i) h.update_i64(t.size(i));
    detail::update_f32_buffer(h, t.data(),
                              static_cast<std::size_t>(t.numel()));
  };
  const std::vector<Var> params = model.parameters();
  h.update_u64(static_cast<std::uint64_t>(params.size()));
  for (const Var& p : params) {
    if (!p.defined()) {
      h.update_str("undefined");
      continue;
    }
    update_tensor(p.val());
  }
  const auto buffers = model.named_buffers();
  h.update_u64(static_cast<std::uint64_t>(buffers.size()));
  for (const auto& [name, t] : buffers) update_tensor(t);

  // Decode identity: the threshold changes mask bits, not logits, but a
  // cached result carries both — so it keys the result tier.
  h.update_f32(mask_threshold);
  fp.result = h.digest();
  return fp;
}

InferenceCache::InferenceCache(CacheConfig cfg) {
  APF_CHECK(cfg.capacity_bytes > 0,
            "InferenceCache: capacity_bytes must be positive, got "
                << cfg.capacity_bytes);
  patch_tier_ = std::make_unique<detail::LruTier<core::PatchSequence>>(
      cfg.capacity_bytes);
  result_tier_ =
      std::make_unique<detail::LruTier<CachedResult>>(cfg.capacity_bytes);
}

InferenceCache::~InferenceCache() = default;

core::Digest128 InferenceCache::image_key(const img::Image& image) {
  core::Hasher h(detail::kSeed);
  h.update_str("image");
  h.update_i64(image.h);
  h.update_i64(image.w);
  h.update_i64(image.c);
  detail::update_f32_buffer(h, image.data.data(), image.data.size());
  return h.digest();
}

core::Digest128 InferenceCache::patch_key(const EngineFingerprint& fp,
                                          const core::Digest128& image_key) {
  return core::combine(image_key, fp.patch, detail::kSeed);
}

core::Digest128 InferenceCache::result_key(const EngineFingerprint& fp,
                                           const core::Digest128& image_key) {
  return core::combine(fp.result, image_key, detail::kSeed);
}

std::optional<core::PatchSequence> InferenceCache::get_patch(
    const core::Digest128& key) const {
  return patch_tier_->get(key);
}

void InferenceCache::put_patch(const core::Digest128& key,
                               const core::PatchSequence& seq) const {
  // Pause+clone: the sequence may live in the caller's ArenaScope; the
  // cached copy must own ordinary heap storage (escape rule,
  // tensor/arena.h).
  ArenaPauseGuard heap;
  patch_tier_->put(key, detail::clone_sequence(seq), patch_entry_bytes(seq));
}

std::optional<CachedResult> InferenceCache::get_result(
    const core::Digest128& key) const {
  std::optional<CachedResult> hit = result_tier_->get(key);
  if (!hit) return std::nullopt;
  // Deep-copy OUT: callers own their result and may write through the
  // logits' data(); handing out the stored handle would let one client
  // corrupt every other's hit. The clone targets the heap even when the
  // caller has an ArenaScope open — results outlive any scope.
  ArenaPauseGuard heap;
  CachedResult out;
  out.logits = hit->logits.clone();
  out.mask = hit->mask;
  out.valid_tokens = hit->valid_tokens;
  return out;
}

void InferenceCache::put_result(const core::Digest128& key,
                                const CachedResult& value) const {
  ArenaPauseGuard heap;
  CachedResult stored;
  stored.logits = value.logits.clone();
  stored.mask = value.mask;
  stored.valid_tokens = value.valid_tokens;
  result_tier_->put(key, std::move(stored), result_entry_bytes(value));
}

CacheStats InferenceCache::stats() const {
  CacheStats out;
  out.patch = patch_tier_->stats();
  out.result = result_tier_->stats();
  return out;
}

std::int64_t InferenceCache::patch_entry_bytes(
    const core::PatchSequence& seq) {
  const std::int64_t tokens = seq.tokens.defined() ? seq.tokens.numel() : 0;
  const std::int64_t mask = seq.mask.defined() ? seq.mask.numel() : 0;
  return (tokens + mask) * static_cast<std::int64_t>(sizeof(float)) +
         static_cast<std::int64_t>(seq.meta.size() * sizeof(core::PatchToken)) +
         detail::kEntryOverheadBytes;
}

std::int64_t InferenceCache::result_entry_bytes(const CachedResult& value) {
  const std::int64_t logits =
      value.logits.defined() ? value.logits.numel() : 0;
  return (logits + value.mask.numel()) *
             static_cast<std::int64_t>(sizeof(float)) +
         detail::kEntryOverheadBytes;
}

}  // namespace apf::serve
