// Content-addressed inference cache (serve/cache.h + core/hash.h):
// digest determinism and platform stability, sharded-LRU eviction order
// and byte accounting, fingerprint isolation, entries shared across gemm
// backends, the bitwise hit==cold contract on both the engine and server
// paths, concurrent hammering of one hot key (the TSan leg runs this
// file), and the arena clone-out rule (the APF_ARENA_POISON leg turns a
// missing deep copy into a deterministic CheckError here).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/hash.h"
#include "data/synthetic.h"
#include "models/unetr.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/gemm_backend.h"

namespace apf {
namespace {

// ------------------------------------------------------------ test rig

// Same small UNETR rig as test_serve: 32px images, 4px patches, natural
// sequence lengths.
struct Rig {
  static constexpr std::int64_t kZ = 32, kPatch = 4;

  explicit Rig(std::uint64_t model_seed = 7, std::int64_t out_channels = 1)
      : rng(model_seed), model(make_config(out_channels), rng) {}

  static models::UnetrConfig make_config(std::int64_t out_channels) {
    models::UnetrConfig mcfg;
    mcfg.out_channels = out_channels;
    mcfg.enc.token_dim = 3 * kPatch * kPatch;
    mcfg.enc.d_model = 32;
    mcfg.enc.depth = 1;
    mcfg.enc.heads = 4;
    mcfg.image_size = kZ;
    mcfg.grid = 8;
    mcfg.base_channels = 8;
    return mcfg;
  }

  serve::EngineConfig engine_config() const {
    serve::EngineConfig ecfg;
    ecfg.patcher.patch_size = kPatch;
    ecfg.patcher.min_patch = kPatch;
    ecfg.patcher.max_depth = 5;
    ecfg.patcher.seq_len = 0;
    ecfg.max_batch = 4;
    return ecfg;
  }

  std::vector<img::Image> images(std::int64_t n) const {
    data::PaipConfig pc;
    pc.resolution = kZ;
    data::SyntheticPaip gen(pc);
    std::vector<img::Image> out;
    for (std::int64_t i = 0; i < n; ++i) out.push_back(gen.sample(i).image);
    return out;
  }

  Rng rng;
  models::Unetr2d model;
};

constexpr std::int64_t kShards = serve::InferenceCache::kShards;

serve::CacheConfig cache_config(std::int64_t capacity = 64 << 20) {
  serve::CacheConfig c;
  c.capacity_bytes = capacity;
  return c;
}

void expect_bitwise_equal(const serve::InferenceResult& a,
                          const serve::InferenceResult& b,
                          const char* what) {
  ASSERT_EQ(a.logits.numel(), b.logits.numel()) << what;
  for (std::int64_t i = 0; i < a.logits.numel(); ++i)
    ASSERT_EQ(a.logits[i], b.logits[i]) << what << ": logit " << i;
  ASSERT_EQ(a.masks.size(), b.masks.size()) << what;
  for (std::size_t m = 0; m < a.masks.size(); ++m)
    for (std::size_t p = 0; p < a.masks[m].data.size(); ++p)
      ASSERT_EQ(a.masks[m].data[p], b.masks[m].data[p])
          << what << ": mask " << m << " pixel " << p;
}

// A synthetic unpadded sequence whose first token value identifies it.
core::PatchSequence make_sequence(std::int64_t length, float tag) {
  core::PatchSequence seq;
  seq.tokens = Tensor::zeros({length, 8});
  seq.tokens[0] = tag;
  seq.mask = Tensor::ones({length});
  seq.meta.assign(static_cast<std::size_t>(length), core::PatchToken{});
  seq.image_size = 32;
  seq.patch_size = 4;
  seq.channels = 3;
  return seq;
}

// Every key lands in shard 0 (a key's shard is key.lo % kShards), so one
// shard's recency order and budget are the whole test's.
core::Digest128 key_of(std::uint64_t i) {
  return core::Digest128{i * kShards, ~i};
}

// ------------------------------------------------------------- hashing

TEST(Hash, EmptyInputWithSeedZeroIsZero) {
  const core::Digest128 d = core::hash_bytes(nullptr, 0, 0);
  EXPECT_EQ(d.lo, 0u);
  EXPECT_EQ(d.hi, 0u);
}

// Pinned known answers: the digest is part of the cache-key contract, so
// an accidental rewrite of the mixer (or an endianness leak) must fail
// loudly, on every platform, with these exact values.
TEST(Hash, KnownAnswersArePinned) {
  const char* text = "adaptive patching";
  const core::Digest128 b = core::hash_bytes(text, 17, 0x12345678ULL);
  EXPECT_EQ(b.lo, 0x263164c687f26bedULL);
  EXPECT_EQ(b.hi, 0xdff9184a5856d1d3ULL);
  EXPECT_EQ(core::to_hex(b), "dff9184a5856d1d3263164c687f26bed");

  core::Hasher h(42);
  h.update_f32(1.0f);
  h.update_i64(-7);
  h.update_str("tile");
  const core::Digest128 c = h.digest();
  EXPECT_EQ(c.lo, 0x9c9a8ed6001e5711ULL);
  EXPECT_EQ(c.hi, 0x3151a3a1b56d11bdULL);
}

TEST(Hash, StreamingMatchesOneShotAcrossSplits) {
  const std::string text = "the quadtree splits where the edges are dense";
  const core::Digest128 want =
      core::hash_bytes(text.data(), text.size(), 99);
  for (std::size_t split = 0; split <= text.size(); split += 5) {
    core::Hasher h(99);
    h.update(text.data(), split);
    h.update(text.data() + split, text.size() - split);
    const core::Digest128 got = h.digest();
    EXPECT_EQ(got, want) << "split at " << split;
  }
}

TEST(Hash, DigestIsNonDestructivePrefixFinalize) {
  core::Hasher h(5);
  h.update_str("prefix");
  const core::Digest128 prefix1 = h.digest();
  h.update_str("suffix");
  const core::Digest128 full = h.digest();

  core::Hasher h2(5);
  h2.update_str("prefix");
  EXPECT_EQ(h2.digest(), prefix1);  // extending did not disturb the prefix
  h2.update_str("suffix");
  EXPECT_EQ(h2.digest(), full);
  EXPECT_NE(prefix1, full);
}

TEST(Hash, SensitiveToBytesSeedAndBoundaries) {
  const core::Digest128 base = core::hash_bytes("abcd", 4, 0);
  EXPECT_NE(core::hash_bytes("abce", 4, 0), base);  // one byte
  EXPECT_NE(core::hash_bytes("abcd", 4, 1), base);  // seed
  EXPECT_NE(core::hash_bytes("abc", 3, 0), base);   // length
  // Length-prefixed strings cannot alias across boundaries.
  core::Hasher a(0), b(0);
  a.update_str("ab");
  a.update_str("c");
  b.update_str("a");
  b.update_str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, PrimitiveFeedersSerializeLittleEndian) {
  // update_f32(1.0f) must hash exactly the LE bytes of 0x3f800000 —
  // pinning the platform-stable serialization, not the host layout.
  core::Hasher a(0);
  a.update_f32(1.0f);
  const unsigned char le[4] = {0x00, 0x00, 0x80, 0x3f};
  core::Hasher b(0);
  b.update(le, 4);
  EXPECT_EQ(a.digest(), b.digest());

  core::Hasher c(0);
  c.update_u64(0x0102030405060708ULL);
  const unsigned char le8[8] = {0x08, 0x07, 0x06, 0x05,
                                0x04, 0x03, 0x02, 0x01};
  core::Hasher d(0);
  d.update(le8, 8);
  EXPECT_EQ(c.digest(), d.digest());
}

TEST(Hash, CombineIsOrderSensitive) {
  const core::Digest128 a{1, 2}, b{3, 4};
  EXPECT_NE(core::combine(a, b), core::combine(b, a));
  EXPECT_EQ(core::combine(a, b), core::combine(a, b));
}

// ------------------------------------------------- sharded LRU behavior

TEST(InferenceCache, LruEvictionOrderAndByteAccounting) {
  // Same-shard keys make the recency order global and deterministic.
  const core::PatchSequence probe = make_sequence(16, 0.f);
  const std::int64_t eb = serve::InferenceCache::patch_entry_bytes(probe);
  serve::CacheConfig cfg = cache_config(3 * eb * kShards);
  serve::InferenceCache cache(cfg);

  cache.put_patch(key_of(1), make_sequence(16, 1.f));
  cache.put_patch(key_of(2), make_sequence(16, 2.f));
  cache.put_patch(key_of(3), make_sequence(16, 3.f));
  serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.patch.entries, 3);
  EXPECT_EQ(s.patch.bytes, 3 * eb);
  EXPECT_EQ(s.patch.insertions, 3);
  EXPECT_EQ(s.patch.evictions, 0);

  // Touch 1 so 2 becomes least-recently-used, then overflow with 4.
  ASSERT_TRUE(cache.get_patch(key_of(1)).has_value());
  cache.put_patch(key_of(4), make_sequence(16, 4.f));
  s = cache.stats();
  EXPECT_EQ(s.patch.entries, 3);
  EXPECT_EQ(s.patch.bytes, 3 * eb);
  EXPECT_EQ(s.patch.evictions, 1);

  EXPECT_FALSE(cache.get_patch(key_of(2)).has_value()) << "LRU not evicted";
  std::optional<core::PatchSequence> one = cache.get_patch(key_of(1));
  std::optional<core::PatchSequence> three = cache.get_patch(key_of(3));
  std::optional<core::PatchSequence> four = cache.get_patch(key_of(4));
  ASSERT_TRUE(one && three && four);
  EXPECT_EQ(one->tokens[0], 1.f);
  EXPECT_EQ(three->tokens[0], 3.f);
  EXPECT_EQ(four->tokens[0], 4.f);

  s = cache.stats();
  EXPECT_EQ(s.patch.hits, 4);    // the touch + three verification gets
  EXPECT_EQ(s.patch.misses, 1);  // the evicted key
}

TEST(InferenceCache, ReinsertingAKeyRefreshesInPlace) {
  serve::InferenceCache cache(cache_config(1 << 20));
  cache.put_patch(key_of(1), make_sequence(16, 1.f));
  cache.put_patch(key_of(1), make_sequence(16, 5.f));
  serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.patch.entries, 1);
  EXPECT_EQ(s.patch.insertions, 1);  // refresh, not a second entry
  EXPECT_EQ(cache.get_patch(key_of(1))->tokens[0], 5.f);
}

TEST(InferenceCache, OversizedEntryIsNotInserted) {
  // Capacity below one entry: the put must be skipped outright (inserting
  // then instantly evicting would thrash the shard for nothing).
  const core::PatchSequence big = make_sequence(64, 1.f);
  serve::InferenceCache cache(cache_config(
      (serve::InferenceCache::patch_entry_bytes(big) - 1) * kShards));
  cache.put_patch(key_of(1), big);
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.patch.entries, 0);
  EXPECT_EQ(s.patch.insertions, 0);
  EXPECT_EQ(s.patch.bytes, 0);
}

TEST(InferenceCache, ResultGetDeepCopiesOut) {
  serve::InferenceCache cache(cache_config());
  serve::CachedResult value;
  value.logits = Tensor::full({1, 1, 4, 4}, 2.5f);
  value.mask = img::Image(4, 4, 1);
  value.valid_tokens = 9;
  cache.put_result(key_of(7), value);

  std::optional<serve::CachedResult> first = cache.get_result(key_of(7));
  ASSERT_TRUE(first.has_value());
  first->logits[0] = -1.f;  // clients own their copy and may scribble

  std::optional<serve::CachedResult> second = cache.get_result(key_of(7));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->logits[0], 2.5f) << "stored entry was corrupted";
  EXPECT_EQ(second->valid_tokens, 9);

  // put_result also deep-copied IN: mutating the original is invisible.
  value.logits[1] = -3.f;
  EXPECT_EQ(cache.get_result(key_of(7))->logits[1], 2.5f);
}

TEST(InferenceCache, RejectsNonPositiveBudget) {
  EXPECT_THROW(serve::InferenceCache(cache_config(0)), detail::CheckError);
  EXPECT_THROW(serve::InferenceCache(cache_config(-1)), detail::CheckError);
}

TEST(InferenceCache, ImageKeyDependsOnPixelsAndGeometry) {
  serve::InferenceCache cache(cache_config());
  Rig rig;
  std::vector<img::Image> imgs = rig.images(2);
  const core::Digest128 a = cache.image_key(imgs[0]);
  EXPECT_EQ(cache.image_key(imgs[0]), a);
  EXPECT_NE(cache.image_key(imgs[1]), a);
  img::Image tweaked = imgs[0];
  tweaked.data[0] += 0.5f;
  EXPECT_NE(cache.image_key(tweaked), a);
}

// -------------------------------------------------------- fingerprints

TEST(Fingerprint, SeparatesPatcherThresholdAndWeights) {
  Rig rig;
  const serve::EngineConfig ecfg = rig.engine_config();
  const serve::EngineFingerprint base =
      serve::compute_engine_fingerprint(rig.model, ecfg.patcher, 0.5f);
  EXPECT_EQ(
      serve::compute_engine_fingerprint(rig.model, ecfg.patcher, 0.5f).result,
      base.result);

  // Threshold: decode-only knob — patch fingerprint unchanged, result
  // fingerprint must move.
  const serve::EngineFingerprint thresh =
      serve::compute_engine_fingerprint(rig.model, ecfg.patcher, 0.75f);
  EXPECT_EQ(thresh.patch, base.patch);
  EXPECT_NE(thresh.result, base.result);

  // Patcher config: both tiers re-key.
  core::ApfConfig other = ecfg.patcher;
  other.max_depth += 1;
  const serve::EngineFingerprint patcher =
      serve::compute_engine_fingerprint(rig.model, other, 0.5f);
  EXPECT_NE(patcher.patch, base.patch);
  EXPECT_NE(patcher.result, base.result);

  // Different weights (same architecture): same pixels must not cross-hit.
  Rig other_rig(/*model_seed=*/1234);
  const serve::EngineFingerprint weights =
      serve::compute_engine_fingerprint(other_rig.model, ecfg.patcher, 0.5f);
  EXPECT_EQ(weights.patch, base.patch);
  EXPECT_NE(weights.result, base.result);
}

TEST(Fingerprint, SeparatesBatchNormRunningStatistics) {
  // Identical weights, different batch-norm running statistics: one
  // training-mode forward on `a` moves them, which changes a's eval logits,
  // so the two models must not share result-tier entries.
  Rig a, b;
  const serve::EngineConfig ecfg = a.engine_config();
  EXPECT_EQ(
      serve::compute_engine_fingerprint(a.model, ecfg.patcher, 0.5f).result,
      serve::compute_engine_fingerprint(b.model, ecfg.patcher, 0.5f).result);
  const core::TokenBatch batch = core::make_batch(
      {core::AdaptivePatcher(ecfg.patcher).process(a.images(1)[0])});
  {
    NoGradGuard ng;
    Rng fwd(0);
    a.model.forward(batch, fwd);  // training mode: batch statistics
  }
  const auto pa = a.model.parameters();
  const auto pb = b.model.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i].numel(); ++j)
      ASSERT_EQ(pa[i].val()[j], pb[i].val()[j]) << "param " << i;
  const serve::EngineFingerprint fa =
      serve::compute_engine_fingerprint(a.model, ecfg.patcher, 0.5f);
  const serve::EngineFingerprint fb =
      serve::compute_engine_fingerprint(b.model, ecfg.patcher, 0.5f);
  EXPECT_EQ(fa.patch, fb.patch);
  EXPECT_NE(fa.result, fb.result);
}

// ------------------------------------------------- engine path, bitwise

TEST(EngineCache, WarmRunIsBitwiseIdenticalToColdAndSkipsForwards) {
  Rig rig;
  std::vector<img::Image> imgs = rig.images(6);

  serve::InferenceEngine cold_engine(rig.model, rig.engine_config());
  const serve::InferenceResult want = cold_engine.run(imgs);

  serve::InferenceEngine engine(
      rig.model, rig.engine_config(),
      std::make_shared<serve::InferenceCache>(cache_config()));
  const serve::InferenceResult first = engine.run(imgs);
  expect_bitwise_equal(first, want, "cache-attached cold run vs no cache");
  EXPECT_EQ(first.stats.result_cache_hits, 0);
  EXPECT_EQ(first.stats.result_cache_misses, 6);
  EXPECT_EQ(first.stats.patch_cache_misses, 6);
  EXPECT_GT(first.stats.batches, 0);

  const serve::InferenceResult warm = engine.run(imgs);
  expect_bitwise_equal(warm, want, "warm run vs cold run");
  EXPECT_EQ(warm.stats.result_cache_hits, 6);
  EXPECT_EQ(warm.stats.result_cache_misses, 0);
  EXPECT_EQ(warm.stats.batches, 0) << "hits must skip the forward";
  EXPECT_EQ(warm.stats.tokens, first.stats.tokens);
  EXPECT_EQ(warm.stats.model_flops, 0.0) << "hits deliver no new compute";
}

TEST(EngineCache, MixedHitMissBatchMatchesColdBitwise) {
  Rig rig;
  std::vector<img::Image> imgs = rig.images(5);
  serve::InferenceEngine engine(
      rig.model, rig.engine_config(),
      std::make_shared<serve::InferenceCache>(cache_config()));
  // Warm images 0..2, then run a batch interleaving warm and cold slots.
  engine.run({imgs[0], imgs[1], imgs[2]});
  const std::vector<img::Image> mixed = {imgs[3], imgs[0], imgs[4], imgs[2]};
  const serve::InferenceResult got = engine.run(mixed);
  EXPECT_EQ(got.stats.result_cache_hits, 2);
  EXPECT_EQ(got.stats.result_cache_misses, 2);

  serve::InferenceEngine cold_engine(rig.model, rig.engine_config());
  expect_bitwise_equal(got, cold_engine.run(mixed), "mixed batch vs cold");

  // Misses spanning several chunks with hits between them: the results of
  // each chunk must land back in the right input slots at every offset.
  serve::EngineConfig small = rig.engine_config();
  small.max_batch = 2;
  std::vector<img::Image> more = rig.images(9);
  serve::InferenceEngine chunked(
      rig.model, small, std::make_shared<serve::InferenceCache>(cache_config()));
  chunked.run({more[1], more[4], more[7]});
  // Misses 0,2 | 3,5 | 6,8 — every chunk straddles a hit.
  const serve::InferenceResult got_chunked = chunked.run(more);
  EXPECT_EQ(got_chunked.stats.result_cache_hits, 3);
  EXPECT_EQ(got_chunked.stats.result_cache_misses, 6);
  EXPECT_EQ(got_chunked.stats.batches, 3) << "6 misses at max_batch 2";
  serve::InferenceEngine chunked_cold(rig.model, small);
  expect_bitwise_equal(got_chunked, chunked_cold.run(more),
                       "multi-chunk mixed batch vs cold");
}

// The patch-hit / result-miss path, reached through the byte budget: each
// shard holds every patch entry of the workload but not one result, which
// the result tier therefore never admits (OversizedEntryIsNotInserted).
// Warm runs skip patching only; the forward still runs.
TEST(EngineCache, BudgetBelowOneResultSkipsPatchingOnly) {
  Rig rig(/*model_seed=*/7, /*out_channels=*/8);  // results outweigh patches
  std::vector<img::Image> imgs = rig.images(4);
  serve::InferenceEngine cold_engine(rig.model, rig.engine_config());
  const serve::InferenceResult want = cold_engine.run(imgs);
  std::int64_t patch_bytes = 0;
  for (const img::Image& im : imgs)
    patch_bytes +=
        serve::InferenceCache::patch_entry_bytes(cold_engine.patch(im));
  serve::CachedResult one;
  one.logits = Tensor({1, want.logits.size(1), want.logits.size(2),
                       want.logits.size(3)});
  one.mask = want.masks[0];
  const std::int64_t shard_budget =
      serve::InferenceCache::result_entry_bytes(one) - 1;
  ASSERT_LE(patch_bytes, shard_budget);

  serve::InferenceEngine engine(
      rig.model, rig.engine_config(),
      std::make_shared<serve::InferenceCache>(
          cache_config(shard_budget * kShards)));
  const serve::InferenceResult first = engine.run(imgs);
  EXPECT_EQ(first.stats.patch_cache_misses, 4);
  const serve::InferenceResult warm = engine.run(imgs);
  EXPECT_EQ(warm.stats.patch_cache_hits, 4);
  EXPECT_EQ(warm.stats.result_cache_hits, 0);
  EXPECT_GT(warm.stats.batches, 0) << "no result fits: forwards still run";
  EXPECT_EQ(engine.cache()->stats().result.entries, 0);
  expect_bitwise_equal(warm, want, "patch-tier warm");
}

TEST(EngineCache, FingerprintIsolationAcrossSharedCache) {
  Rig rig;
  std::vector<img::Image> imgs = rig.images(3);
  auto cache = std::make_shared<serve::InferenceCache>(cache_config());

  serve::InferenceEngine a(rig.model, rig.engine_config(), cache);
  a.run(imgs);

  // Same pixels, different threshold, SAME shared cache: must miss and
  // produce exactly what a cold engine at that threshold produces.
  serve::EngineConfig bcfg = rig.engine_config();
  bcfg.mask_threshold = 0.75f;
  serve::InferenceEngine b(rig.model, bcfg, cache);
  const serve::InferenceResult bres = b.run(imgs);
  EXPECT_EQ(bres.stats.result_cache_hits, 0)
      << "different threshold must not cross-hit";

  serve::InferenceEngine b_cold(rig.model, bcfg);
  expect_bitwise_equal(bres, b_cold.run(imgs), "isolated threshold run");

  // Different weights, same config, same shared cache: also isolated.
  Rig other(/*model_seed=*/1234);
  serve::InferenceEngine c(other.model, rig.engine_config(), cache);
  const serve::InferenceResult cres = c.run(imgs);
  EXPECT_EQ(cres.stats.result_cache_hits, 0)
      << "different weights must not cross-hit";
  serve::InferenceEngine c_cold(other.model, rig.engine_config());
  expect_bitwise_equal(cres, c_cold.run(imgs), "isolated weights run");
}

// Every gemm backend computes the same bits (tensor/gemm.h), so result
// keys do not name the backend: entries filled under one backend serve
// hits under every other, and a cold run matches under each of them.
TEST(EngineCache, EntriesSharedAcrossBackends) {
  struct RestoreBackend {
    const std::string saved = active_gemm_backend().name();
    ~RestoreBackend() { set_gemm_backend(saved); }
  } restore;
  Rig rig;
  const std::vector<img::Image> imgs = rig.images(3);

  ASSERT_TRUE(set_gemm_backend("reference"));
  serve::InferenceEngine cold_engine(rig.model, rig.engine_config());
  const serve::InferenceResult want = cold_engine.run(imgs);
  serve::InferenceEngine engine(
      rig.model, rig.engine_config(),
      std::make_shared<serve::InferenceCache>(cache_config()));
  expect_bitwise_equal(engine.run(imgs), want, "reference cache fill");

  for (const std::string& name : available_gemm_backend_names()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(set_gemm_backend(name));
    expect_bitwise_equal(cold_engine.run(imgs), want, "cold vs reference");
    const serve::InferenceResult warm = engine.run(imgs);
    EXPECT_EQ(warm.stats.result_cache_hits, 3);
    EXPECT_EQ(warm.stats.result_cache_misses, 0);
    expect_bitwise_equal(warm, want, "warm vs reference");
  }
}

TEST(EngineCache, EvictionUnderTinyBudgetStaysCorrect) {
  Rig rig;
  // More images than shards, so some shard holds two results.
  std::vector<img::Image> imgs = rig.images(kShards + 1);
  serve::InferenceEngine cold_engine(rig.model, rig.engine_config());
  const serve::InferenceResult want = cold_engine.run(imgs);

  // Budget ~ one result entry (8448 B at 32 px) per shard: constant churn,
  // correctness unaffected.
  serve::InferenceEngine engine(
      rig.model, rig.engine_config(),
      std::make_shared<serve::InferenceCache>(
          cache_config((12 << 10) * kShards)));
  engine.run(imgs);
  expect_bitwise_equal(engine.run(imgs), want, "thrashing warm run");
  EXPECT_GT(engine.cache()->stats().total_evictions() +
                engine.cache()->stats().result.entries,
            0);
}

// One cache-attached engine shared by threads calling run() at once, as
// Server shares its engine between submit() and its workers: cold misses
// and warm hits race on the shared tiers, and every result must carry the
// serial bits (the TSan leg runs this).
TEST(EngineCache, ConcurrentRunsOnOneEngineMatchSerialBitwise) {
  Rig rig;
  const std::vector<img::Image> imgs = rig.images(4);
  rig.model.set_training(false);  // concurrent forwards only read the model
  const serve::InferenceResult want =
      serve::InferenceEngine(rig.model, rig.engine_config()).run(imgs);

  const serve::InferenceEngine engine(
      rig.model, rig.engine_config(),
      std::make_shared<serve::InferenceCache>(cache_config()));
  constexpr int kThreads = 4, kRuns = 3;
  std::vector<serve::InferenceResult> got(kThreads * kRuns);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRuns; ++r) got[t * kRuns + r] = engine.run(imgs);
    });
  }
  for (std::thread& th : threads) th.join();
  for (const serve::InferenceResult& r : got)
    expect_bitwise_equal(r, want, "concurrent run vs serial");
  const serve::CacheStats s = engine.cache()->stats();
  EXPECT_EQ(s.result.hits + s.result.misses, kThreads * kRuns * 4);
  EXPECT_GT(s.result.hits, 0);
}

// ------------------------------------------------- arena clone-out rule

TEST(EngineCache, CachedEntriesSurviveArenaScopeRecycling) {
  Rig rig;
  std::vector<img::Image> imgs = rig.images(2);
  serve::InferenceEngine cold_engine(rig.model, rig.engine_config());
  const serve::InferenceResult want = cold_engine.run(imgs);

  serve::InferenceEngine engine(
      rig.model, rig.engine_config(),
      std::make_shared<serve::InferenceCache>(cache_config()));
  {
    // Populate the cache while THIS thread has a live ArenaScope (grad
    // off so tensor storage actually routes through the arena): every
    // value the cache keeps must be deep-copied to the heap (pause+
    // clone) or the rewind below reclaims it. Under APF_ARENA_POISON a
    // missing clone turns the later reads into a CheckError.
    NoGradGuard no_grad;
    ArenaScope scope;
    engine.patch(imgs[0]);
    engine.run(imgs);
  }
  {
    // Recycle the arena memory the scope released: a shallow-cached
    // entry would now be reading this garbage.
    NoGradGuard no_grad;
    ArenaScope scope;
    Tensor garbage = Tensor::full({1 << 15}, -777.f);
    EXPECT_EQ(garbage[0], -777.f);
  }
  const serve::InferenceResult warm = engine.run(imgs);
  EXPECT_EQ(warm.stats.result_cache_hits, 2);
  expect_bitwise_equal(warm, want, "cached entries after arena recycling");
}

// ---------------------------------------------------------- server path

TEST(ServerCache, WarmWaveBitwiseIdenticalAndServedFromSubmit) {
  Rig rig;
  std::vector<img::Image> imgs = rig.images(8);
  serve::InferenceEngine serial(rig.model, rig.engine_config());
  const serve::InferenceResult want = serial.run(imgs);
  const std::int64_t per =
      want.logits.numel() / static_cast<std::int64_t>(imgs.size());

  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 2;
  scfg.cache = cache_config();
  serve::Server server(rig.model, scfg);

  const auto check_wave = [&](const char* wave) {
    std::vector<std::future<serve::InferenceResult>> futures =
        server.submit_many(imgs);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::InferenceResult r = futures[i].get();
      ASSERT_EQ(r.logits.numel(), per) << wave;
      for (std::int64_t j = 0; j < per; ++j)
        ASSERT_EQ(r.logits[j],
                  want.logits[static_cast<std::int64_t>(i) * per + j])
            << wave << ": image " << i << " logit " << j;
      for (std::size_t p = 0; p < r.masks[0].data.size(); ++p)
        ASSERT_EQ(r.masks[0].data[p], want.masks[i].data[p])
            << wave << ": image " << i << " mask pixel " << p;
    }
  };

  check_wave("cold wave");
  const serve::InferenceStats after_cold = server.stats();
  EXPECT_EQ(after_cold.result_cache_hits, 0);
  EXPECT_EQ(after_cold.result_cache_misses, 8);
  EXPECT_EQ(after_cold.images, 8);

  check_wave("warm wave");
  const serve::InferenceStats after_warm = server.stats();
  EXPECT_EQ(after_warm.result_cache_hits, 8);
  EXPECT_EQ(after_warm.images, 16);
  EXPECT_EQ(after_warm.batches, after_cold.batches)
      << "warm wave must not reach the workers";
  EXPECT_GT(after_warm.cache_bytes, 0);

  // Per-request stats mark the hit and carry no batch ride-along.
  std::future<serve::InferenceResult> f = server.submit(imgs[0]);
  const serve::InferenceResult hit = f.get();
  EXPECT_EQ(hit.stats.result_cache_hits, 1);
  EXPECT_EQ(hit.stats.batch_size, 0);
  EXPECT_GT(hit.stats.tokens, 0) << "hit stats still report valid tokens";
}

// run() and Server drive the same admit/complete stages, so a run() call's
// stats must equal the sum of the server's per-request stats for the same
// images, cold wave and warm wave alike.
TEST(ServerCache, RunStatsEqualSummedServerRequestStats) {
  Rig rig;
  const std::vector<img::Image> imgs = rig.images(6);
  serve::InferenceEngine engine(
      rig.model, rig.engine_config(),
      std::make_shared<serve::InferenceCache>(cache_config()));

  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 2;
  scfg.cache = cache_config();
  serve::Server server(rig.model, scfg);

  for (const char* wave : {"cold wave", "warm wave"}) {
    const serve::InferenceStats want = engine.run(imgs).stats;
    serve::InferenceStats sum;
    for (auto& f : server.submit_many(imgs)) sum.add_request(f.get().stats);
    EXPECT_EQ(sum.images, want.images) << wave;
    EXPECT_EQ(sum.tokens, want.tokens) << wave;
    EXPECT_DOUBLE_EQ(sum.model_flops, want.model_flops) << wave;
    EXPECT_EQ(sum.patch_cache_hits, want.patch_cache_hits) << wave;
    EXPECT_EQ(sum.patch_cache_misses, want.patch_cache_misses) << wave;
    EXPECT_EQ(sum.result_cache_hits, want.result_cache_hits) << wave;
    EXPECT_EQ(sum.result_cache_misses, want.result_cache_misses) << wave;
  }
  // The waves really were cold then warm.
  const serve::InferenceStats agg = server.stats();
  EXPECT_EQ(agg.result_cache_misses, 6);
  EXPECT_EQ(agg.result_cache_hits, 6);
}

TEST(ServerCache, StatsWindowsResetBetweenCalls) {
  Rig rig;
  std::vector<img::Image> imgs = rig.images(4);
  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 1;
  scfg.cache = cache_config();
  serve::Server server(rig.model, scfg);

  for (auto& f : server.submit_many(imgs)) f.get();
  serve::InferenceStats w1 = server.stats_since_last();
  EXPECT_EQ(w1.images, 4);
  EXPECT_EQ(w1.result_cache_misses, 4);
  EXPECT_EQ(w1.result_cache_hits, 0);
  EXPECT_GT(w1.total_seconds, 0.0);

  for (auto& f : server.submit_many(imgs)) f.get();
  serve::InferenceStats w2 = server.stats_since_last();
  EXPECT_EQ(w2.images, 4);
  EXPECT_EQ(w2.result_cache_hits, 4);
  EXPECT_EQ(w2.result_cache_misses, 0);
  EXPECT_EQ(w2.batches, 0);
  EXPECT_DOUBLE_EQ(w2.result_cache_hit_rate(), 1.0);

  serve::InferenceStats w3 = server.stats_since_last();
  EXPECT_EQ(w3.images, 0);
  EXPECT_EQ(w3.result_cache_hits, 0);
  // Lifetime stats() is unaffected by the windowed reader.
  EXPECT_EQ(server.stats().images, 8);
}

TEST(ServerCache, SubmitAfterShutdownThrowsOnHitPathToo) {
  Rig rig;
  std::vector<img::Image> imgs = rig.images(1);
  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 1;
  scfg.cache = cache_config();
  serve::Server server(rig.model, scfg);
  server.submit(imgs[0]).get();  // populate
  server.shutdown();
  EXPECT_THROW(server.submit(imgs[0]), detail::CheckError);
}

// One hot key hammered from many client threads while workers also write
// the result tier — the shape the TSan CI leg (APF_NUM_THREADS=7)
// verifies. Every response must carry the same bits.
TEST(ServerCache, ConcurrentHotKeyHammering) {
  Rig rig;
  std::vector<img::Image> imgs = rig.images(1);
  serve::InferenceEngine serial(rig.model, rig.engine_config());
  const serve::InferenceResult want = serial.run(imgs);

  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 3;
  // Small budget: eviction churn races the hits on the same shard.
  scfg.cache = cache_config((32 << 10) * kShards);
  serve::Server server(rig.model, scfg);

  constexpr int kThreads = 6, kPerThread = 12;
  std::vector<std::thread> clients;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        serve::InferenceResult r = server.submit(imgs[0]).get();
        for (std::int64_t j = 0; j < r.logits.numel(); ++j)
          if (r.logits[j] != want.logits[j]) {
            ++failures[t];
            break;
          }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(failures[t], 0) << "client thread " << t << " saw wrong bits";
  const serve::InferenceStats s = server.stats();
  EXPECT_EQ(s.images, kThreads * kPerThread);
  EXPECT_GT(s.result_cache_hits, 0);
}

// Direct cache hammering: concurrent put/get on one key plus stats
// readers, no server in the way (pure LruTier surface for TSan).
TEST(InferenceCache, ConcurrentPutGetOneKey) {
  serve::InferenceCache cache(cache_config(1 << 20));
  constexpr int kThreads = 6, kOps = 200;
  std::vector<std::thread> threads;
  std::vector<int> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        if (t % 2 == 0) {
          cache.put_patch(key_of(9), make_sequence(16, 42.f));
        } else {
          std::optional<core::PatchSequence> got = cache.get_patch(key_of(9));
          if (got && got->tokens[0] != 42.f) ++bad[t];
        }
        if (i % 32 == 0) (void)cache.stats();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0);
  EXPECT_EQ(cache.stats().patch.entries, 1);
}

}  // namespace
}  // namespace apf
