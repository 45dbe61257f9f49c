#pragma once
// Thread-safe request queue with length-bucketed dynamic batching — the
// scheduler half of serve::Server.
//
// Requests arrive already patched (admit() runs on the submitting thread)
// so the queue can group them by sequence length: each request lands in
// the bucket of its length rounded UP to a multiple of the configured
// granularity, and a pop hands a worker up to max_batch requests from a
// single bucket. Batching same-bucket requests means a batch is padded
// only to its own longest member instead of the longest request in
// flight, which is where dynamic batching beats first-come order on the
// ragged sequences adaptive patching produces.
//
// Scheduling policy, fixed at construction by max_batch and deadline:
//   1. a bucket holding >= max_batch requests flushes immediately (the
//      bucket whose FRONT request is oldest wins when several are full);
//   2. otherwise, once the oldest pending request has waited `deadline`,
//      its bucket flushes part-full — bounded latency under light load;
//   3. after close(), remaining requests drain immediately (oldest bucket
//      first, deadline ignored); pop_batch returns empty only when the
//      queue is closed AND drained, which is the workers' exit signal.
//
// push() blocks while the queue holds max_pending requests (backpressure
// toward the submitting clients) and fails only after close().

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "models/patcher.h"
#include "core/thread_annotations.h"
#include "serve/engine.h"

namespace apf::serve {

/// One queued inference request: an admitted image (engine.h) plus the
/// promise a worker fulfills with its per-request InferenceResult.
struct Request : PatchedImage {
  std::uint64_t id = 0;  ///< submission order, unique per server
  std::promise<InferenceResult> promise;
  std::chrono::steady_clock::time_point enqueued{};
  /// Requests already pending when this one was admitted (observability:
  /// surfaces as InferenceStats::queue_depth).
  std::int64_t queue_depth = 0;
};

/// Bounded multi-producer / multi-consumer queue of Requests, bucketed by
/// (source image size, sequence length): requests only batch with peers
/// that can legally share a TokenBatch. All methods are thread-safe.
class RequestQueue {
 public:
  /// max_pending: capacity before push() blocks (> 0).
  /// bucket_granularity: lengths are grouped by ceil(len / g) * g (> 0);
  /// 1 buckets exact lengths, a large value degrades to first-come order.
  /// max_batch: most requests one pop hands out (> 0); a bucket holding
  /// this many flushes at once.
  /// deadline: how long the oldest request waits before its part-full
  /// bucket flushes. Must be finite, >= 0 and at most half of
  /// steady_clock's range, so a wait until it never overflows the clock.
  RequestQueue(std::int64_t max_pending, std::int64_t bucket_granularity,
               std::int64_t max_batch,
               std::chrono::duration<double, std::milli> deadline);

  /// Blocks while the queue is full; returns false (leaving r valid) only
  /// when the queue was closed before space freed up.
  bool push(Request&& r);

  /// Non-blocking push; false when full or closed (r is not consumed).
  bool try_push(Request&& r);

  /// Pops the next batch per the scheduling policy above. Blocks until a
  /// batch is ready; an empty result means closed-and-drained.
  std::vector<Request> pop_batch();

  /// Blocks until a bucket is ripe (full, past the deadline, or a
  /// closed-queue drain) and returns true; returns false once the queue is
  /// closed AND drained. Does NOT pop — lets a worker delay claiming
  /// requests until it can actually run them (e.g. until it holds an
  /// execution permit), so no batch sits parked behind a busy peer. The
  /// eventual try_pop_batch may still come back empty when another
  /// consumer won the race.
  bool wait_ready();

  /// Pops the ripe bucket's batch if one is ready RIGHT NOW, else returns
  /// an empty vector without waiting. Lets a worker that already holds an
  /// execution permit keep draining back-to-back batches
  /// (run-to-completion) without parking in a wait.
  std::vector<Request> try_pop_batch();

  /// Stops accepting pushes and lets pop_batch drain what is left
  /// immediately. Idempotent; wakes every blocked push/pop.
  void close();

  bool closed() const;
  std::int64_t pending() const;

  /// The bucket key a sequence length maps to (rounded up to a multiple
  /// of the granularity; length 0 maps to the first bucket).
  std::int64_t bucket_of(std::int64_t length) const;

 private:
  /// Bucket key: image size first, then bucketed length — sequences from
  /// differently-sized sources must never share a batch even when their
  /// token counts collide.
  using BucketKey = std::pair<std::int64_t, std::int64_t>;

  BucketKey key_of(const Request& r) const {
    return {r.seq.image_size, bucket_of(r.seq.length())};
  }

  // Returns the bucket to flush now, or nullopt when none is ready.
  std::optional<BucketKey> ripe_bucket() const APF_REQUIRES(mu_);

  // Moves up to max_batch_ requests out of `key`'s bucket.
  std::vector<Request> take_locked(const BucketKey& key) APF_REQUIRES(mu_);

  // One scheduling sleep: until the oldest part-full bucket's deadline
  // when something is pending, else until the next push/close.
  void wait_for_change() APF_REQUIRES(mu_);

  const std::int64_t max_pending_;
  const std::int64_t granularity_;
  const std::int64_t max_batch_;
  const std::chrono::steady_clock::duration deadline_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar ready_;
  std::map<BucketKey, std::deque<Request>> buckets_
      APF_GUARDED_BY(mu_);  // key -> FIFO
  std::int64_t pending_ APF_GUARDED_BY(mu_) = 0;
  bool closed_ APF_GUARDED_BY(mu_) = false;
};

}  // namespace apf::serve
