#pragma once
// Async serving front end: request queue + length-bucketed dynamic
// batching + worker threads over one shared model.
//
//                      ┌──────────────────────── Server ───────────────────────┐
//   client thread ──►  │ submit(): admit() ──────────► RequestQueue            │
//   client thread ──►  │             │ result-tier hit  │  length buckets      │
//                      │             ▼ (resolved here)  ▼                      │
//                      │           worker: pop_batch -> complete()             │
//                      │                  (scheduler)   (prepare -> forward    │
//                      │                                 -> decode -> store)   │
//                      └──────────────┬────────────────────────────────────────┘
//                                     ▼
//                      std::future<InferenceResult> per request
//
// admit() and complete() are the engine stages run() drives too; the
// server adds only the queue, queue timing and the aggregate stats.
//
// submit() and every worker call one shared InferenceEngine, which is
// immutable after construction; the model is parked in eval mode for the
// server's lifetime so the grad-free forwards never write shared state.
// Workers submit each forward pass to the unified work-stealing scheduler
// (core/thread_pool.h) as an inter-op TaskKind::kForward task; the gemm
// panels inside it are intra-op kPanel tasks on the SAME pool, so
// batch-level and panel-level parallelism compose — a lone batch fans its
// panels across every idle thread, concurrent batches naturally share —
// instead of a static per-worker ThreadLimitGuard partition. Results are
// bitwise identical to the serial InferenceEngine::run() path regardless
// of arrival order, batch composition, or bucket padding: the fused masked
// attention, mask-aware dense layers, and per-item scatter compute every
// image from its own valid tokens only.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "serve/engine.h"
#include "serve/request_queue.h"
#include "core/thread_pool.h"

namespace apf::serve {

/// Scheduling knobs on top of the EngineConfig. Validated at Server
/// construction.
struct ServerConfig {
  /// Patching schedule, per-forward max_batch (the dynamic batch size the
  /// scheduler coalesces toward), and mask threshold.
  EngineConfig engine;
  /// Pending-request capacity; submit() blocks (backpressure) while the
  /// queue holds this many requests.
  std::int64_t max_queue = 64;
  /// A part-full bucket flushes once its oldest request has waited this
  /// long — the latency bound under light load. 0 disables coalescing
  /// waits entirely (every pop takes whatever is queued). Must be finite,
  /// >= 0 and at most half of steady_clock's range (about 146 years).
  double batch_deadline_ms = 2.0;
  /// Worker threads, all running the server's one engine.
  int num_workers = 2;
  /// Sequence lengths are bucketed by ceil(len / g) * g before batching;
  /// requests only batch with same-bucket peers. 1 batches exact lengths
  /// only; a value >= the token budget degrades to first-come order.
  std::int64_t bucket_granularity = 32;
  /// Content-addressed cache (serve/cache.h): capacity_bytes > 0 turns it
  /// on, and the server's engine then holds one InferenceCache for the
  /// client-side admit stage and every worker. Exact duplicate submissions
  /// are served straight from submit() (no queue, no forward) with outputs
  /// bitwise identical to a cold request; repeated pixels with a cold
  /// result tier still skip patching via the patch tier. Off by default.
  CacheConfig cache;
};

/// Asynchronous inference server over one TokenSegModel.
///
/// Thread-safe: submit() / submit_many() may be called from any number of
/// client threads. shutdown() (or destruction) drains every accepted
/// request — all returned futures become ready — then joins the workers
/// and restores the model's training mode.
class Server {
 public:
  /// The server borrows the model; the caller keeps it alive and must not
  /// mutate it (train, load weights, toggle modes) while the server runs.
  Server(models::TokenSegModel& model, ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits the image on the calling thread (validates square, model
  /// geometry — throws detail::CheckError naming the shape — then patches
  /// it) and enqueues it; a result-tier hit resolves at once instead.
  /// Blocks while the queue is full; throws after shutdown(). The future
  /// carries the per-request logits [1, C, Z, Z], mask, and
  /// InferenceStats (queue wait, dynamic batch size, padding).
  std::future<InferenceResult> submit(const img::Image& image);

  /// Validates ALL images first (CheckError names the offending index),
  /// then admits and enqueues each in order, as submit() does.
  std::vector<std::future<InferenceResult>> submit_many(
      const std::vector<img::Image>& images);

  /// Drains accepted requests, joins the workers, restores the model's
  /// training mode. Idempotent; called by the destructor.
  void shutdown();

  /// Aggregate stats over everything completed so far: images, batches,
  /// valid/padded tokens (padding_ratio() is the scheduler's score),
  /// summed patch/queue/forward seconds, wall-clock total since
  /// construction, delivered encoder FLOPs — plus scheduler observability
  /// (summed queue depth at admission, steal and per-kind task counts
  /// since construction, effective batch size distribution) and, with a
  /// cache configured, the shared cache's hit/miss/eviction totals and
  /// current byte footprint.
  InferenceStats stats() const;

  /// Stats for the window since the previous stats_since_last() call (or
  /// construction, on the first call), then resets the window: counters
  /// and summed seconds are the per-window delta, total_seconds is the
  /// window's wall-clock span, and gauges (cache_bytes, gemm_backend)
  /// report their current values. Long-lived servers use this for
  /// per-window hit rates and throughput instead of lifetime aggregates.
  /// Thread-safe, but concurrent callers split the stream between them —
  /// each delta is observed by exactly one caller.
  InferenceStats stats_since_last();

  /// The shared content cache; nullptr when cfg.cache.capacity_bytes is 0.
  const std::shared_ptr<InferenceCache>& cache() const {
    return engine_.cache();
  }

  /// Requests accepted but not yet handed to a worker.
  std::int64_t pending() const { return queue_.pending(); }

  const ServerConfig& config() const { return cfg_; }

 private:
  /// submit() after validation: admits a validated image and enqueues it
  /// (or resolves a result-tier hit at once).
  std::future<InferenceResult> enqueue(const img::Image& image);
  void worker_main();
  void process_batch(std::vector<Request>&& batch);

  models::TokenSegModel& model_;
  ServerConfig cfg_;
  RequestQueue queue_;
  /// Runs admit() on client threads and complete() on every worker.
  const InferenceEngine engine_;
  std::atomic<std::uint64_t> next_id_{0};
  /// Process-wide scheduler counters at construction; stats() reports the
  /// delta, scoping steal/task counts to this server's lifetime.
  SchedulerStats sched_at_start_;
  Mutex shutdown_mu_;  ///< serializes shutdown() callers
  /// Written by the constructor before any worker exists, then only
  /// touched under shutdown_mu_ (join/clear/restore on the way down).
  std::vector<std::thread> workers_ APF_GUARDED_BY(shutdown_mu_);
  bool model_was_training_ APF_GUARDED_BY(shutdown_mu_) = false;
  bool shut_down_ APF_GUARDED_BY(shutdown_mu_) = false;

  mutable Mutex stats_mu_;
  InferenceStats aggregate_ APF_GUARDED_BY(stats_mu_);
  /// stats_since_last() window state: the snapshot at the last window
  /// reset and when that window started.
  InferenceStats window_base_ APF_GUARDED_BY(stats_mu_);
  std::chrono::steady_clock::time_point window_started_
      APF_GUARDED_BY(stats_mu_);
  std::chrono::steady_clock::time_point started_;
};

}  // namespace apf::serve
