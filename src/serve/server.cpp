#include "serve/server.h"

#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "core/thread_pool.h"

namespace apf::serve {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Server::Server(models::TokenSegModel& model, ServerConfig cfg)
    : model_(model),
      cfg_(cfg),
      queue_(cfg.max_queue, cfg.bucket_granularity, cfg.engine.max_batch,
             std::chrono::duration<double, std::milli>(cfg.batch_deadline_ms)),
      engine_(model, cfg.engine,
              cfg.cache.capacity_bytes > 0
                  ? std::make_shared<InferenceCache>(cfg.cache)
                  : nullptr),
      started_(Clock::now()) {
  APF_CHECK(cfg_.num_workers > 0,
            "ServerConfig: num_workers must be positive, got "
                << cfg_.num_workers);
  APF_CHECK(cfg_.cache.capacity_bytes >= 0,
            "ServerConfig: cache.capacity_bytes must be >= 0, got "
                << cfg_.cache.capacity_bytes);
  // max_queue, bucket_granularity, engine.max_batch and batch_deadline_ms
  // are validated by the RequestQueue, the rest of the EngineConfig by the
  // engine.

  // Park the shared model in eval mode for the server's lifetime: workers
  // then only READ module state, so concurrent forwards are race-free.
  model_was_training_ = model_.training();
  model_.set_training(false);

  // Scope the scheduler counters reported by stats() to this server's
  // lifetime. The first stats_since_last() window also starts here.
  sched_at_start_ = scheduler_stats();
  window_started_ = started_;

  workers_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int i = 0; i < cfg_.num_workers; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  MutexLock lock(shutdown_mu_);
  if (shut_down_) return;
  queue_.close();  // no new submits; workers drain what was accepted
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  model_.set_training(model_was_training_);
  shut_down_ = true;
}

std::future<InferenceResult> Server::submit(const img::Image& image) {
  // Validation fails fast at the API boundary.
  engine_.validate_image(image);
  return enqueue(image);
}

std::future<InferenceResult> Server::enqueue(const img::Image& image) {
  // Admit on the calling thread: patching in parallel across clients
  // keeps the workers fed.
  Request r;
  if (std::optional<InferenceResult> hit = engine_.admit(image, r)) {
    // Exact duplicate: serve it right here — no queue, no worker, no
    // forward. Shutdown still rejects new work on this path, and the
    // aggregate is folded BEFORE the future resolves (same ordering
    // contract as process_batch).
    APF_CHECK(!queue_.closed(), "Server::submit: server is shut down");
    {
      MutexLock lock(stats_mu_);
      aggregate_.add_request(hit->stats);
    }
    std::promise<InferenceResult> promise;
    std::future<InferenceResult> future = promise.get_future();
    promise.set_value(std::move(*hit));
    return future;
  }
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.queue_depth = queue_.pending();  // depth at admission (observability)
  r.enqueued = Clock::now();
  std::future<InferenceResult> future = r.promise.get_future();
  APF_CHECK(queue_.push(std::move(r)),
            "Server::submit: server is shut down");
  return future;
}

std::vector<std::future<InferenceResult>> Server::submit_many(
    const std::vector<img::Image>& images) {
  APF_CHECK(!images.empty(), "Server::submit_many: empty image batch");
  // Validate everything up front so a bad image rejects the whole call
  // before ANY request is enqueued (no partial batches on error).
  for (std::size_t i = 0; i < images.size(); ++i)
    engine_.validate_image(images[i], static_cast<std::int64_t>(i));
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(images.size());
  for (const img::Image& im : images) futures.push_back(enqueue(im));
  return futures;
}

void Server::worker_main() {
  for (;;) {
    // Wait for poppable work WITHOUT claiming it: requests are only
    // popped inside the task below, once this worker actually holds an
    // execution permit. A worker parked behind a busy peer therefore
    // never sits on a claimed batch (which would force a cache-cold
    // worker handoff the moment it finally ran).
    if (!queue_.wait_ready()) return;  // closed and drained
    // The forward work is an inter-op task on the shared work-stealing
    // scheduler: it may run right here (wait() participates) or on a pool
    // thread that stole it, and the gemm panels it spawns are intra-op
    // tasks on the SAME pool — so capacity follows load instead of the
    // static per-worker ThreadLimitGuard split this replaced. The task
    // runs to completion: while it holds its execution permit it keeps
    // draining whatever the queue can hand over without waiting, so on a
    // host narrower than the worker count, consecutive batches stay on
    // one cache-hot thread (and its warm thread-local arena) instead of
    // ping-ponging between workers. The pop may also come back empty —
    // another worker won the race — which just ends the task.
    // Correctness is thread-independent: engine_.forward() installs its
    // own NoGradGuard and ArenaScope, and process_batch() fulfills
    // promises itself (it never throws).
    TaskGroup group;
    group.submit(
        1,
        [&](std::int64_t) {
          for (;;) {
            std::vector<Request> batch = queue_.try_pop_batch();
            if (batch.empty()) return;
            process_batch(std::move(batch));
          }
        },
        TaskKind::kForward);
    group.wait();
  }
}

void Server::process_batch(std::vector<Request>&& batch) {
  const auto t0 = Clock::now();
  try {
    std::vector<PatchedImage> items;
    items.reserve(batch.size());
    for (Request& r : batch) items.push_back(std::move(r));  // its admit half
    // Pad only to this batch's own longest member — the bucket guarantees
    // peers are within one granularity step, so padding stays small.
    std::vector<InferenceResult> results = engine_.complete(std::move(items));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      InferenceStats& s = results[i].stats;
      s.queue_depth = batch[i].queue_depth;
      s.queue_seconds =
          std::chrono::duration<double>(t0 - batch[i].enqueued).count();
      s.total_seconds += s.queue_seconds;
    }
    // Fold into the aggregate BEFORE fulfilling the promises, so a client
    // that has seen all its futures resolve also sees them in stats().
    // (Cache counters come from the shared cache itself — see stats().)
    {
      MutexLock lock(stats_mu_);
      for (const InferenceResult& r : results) aggregate_.add_request(r.stats);
      aggregate_.batches += 1;
      aggregate_.forward_seconds += results[0].stats.forward_seconds;
      ++aggregate_.batch_size_counts[results[0].stats.batch_size];
    }
    for (std::size_t i = 0; i < batch.size(); ++i)
      batch[i].promise.set_value(std::move(results[i]));
  } catch (...) {
    // A failed batch fails its own requests; the worker and every other
    // request keep going. Requests already fulfilled before the failure
    // keep their results (set_exception on them would throw).
    const std::exception_ptr err = std::current_exception();
    for (Request& r : batch) {
      try {
        r.promise.set_exception(err);
      } catch (const std::future_error&) {
      }
    }
  }
}

InferenceStats Server::stats() const {
  // Gather external counters BEFORE taking stats_mu_: the cache locks
  // its shard mutexes, and keeping those acquisitions outside the
  // stats_mu_ critical section keeps the lock-order graph edge-free.
  const CacheStats cache_now =
      engine_.cache() ? engine_.cache()->stats() : CacheStats{};
  const SchedulerStats now = scheduler_stats();
  MutexLock lock(stats_mu_);
  InferenceStats out = aggregate_;
  out.total_seconds = seconds_since(started_);
  // Scheduler activity since construction (process-wide counters diffed
  // against the construction snapshot — see InferenceStats docs).
  out.scheduler_steals = now.steals - sched_at_start_.steals;
  out.forward_tasks = now.forward_tasks - sched_at_start_.forward_tasks;
  out.panel_tasks = now.panel_tasks - sched_at_start_.panel_tasks;
  // Cache totals come from the shared cache itself: the per-shard
  // counters are the ground truth for hits/misses/evictions, and bytes/
  // entries are its current footprint.
  out.patch_cache_hits = cache_now.patch.hits;
  out.patch_cache_misses = cache_now.patch.misses;
  out.result_cache_hits = cache_now.result.hits;
  out.result_cache_misses = cache_now.result.misses;
  out.cache_evictions = cache_now.total_evictions();
  out.cache_bytes = cache_now.total_bytes();
  return out;
}

InferenceStats Server::stats_since_last() {
  InferenceStats cur = stats();
  MutexLock lock(stats_mu_);
  InferenceStats out = cur;
  const InferenceStats& base = window_base_;
  // Monotonic counters and summed seconds report the per-window delta;
  // gauges (cache_bytes, gemm_backend, batch_size) stay current.
  out.images -= base.images;
  out.batches -= base.batches;
  out.tokens -= base.tokens;
  out.padded_tokens -= base.padded_tokens;
  out.queue_depth -= base.queue_depth;
  out.scheduler_steals -= base.scheduler_steals;
  out.forward_tasks -= base.forward_tasks;
  out.panel_tasks -= base.panel_tasks;
  out.patch_cache_hits -= base.patch_cache_hits;
  out.patch_cache_misses -= base.patch_cache_misses;
  out.result_cache_hits -= base.result_cache_hits;
  out.result_cache_misses -= base.result_cache_misses;
  out.cache_evictions -= base.cache_evictions;
  out.patch_seconds -= base.patch_seconds;
  out.queue_seconds -= base.queue_seconds;
  out.forward_seconds -= base.forward_seconds;
  out.model_flops -= base.model_flops;
  for (const auto& [size, count] : base.batch_size_counts) {
    if ((out.batch_size_counts[size] -= count) == 0)
      out.batch_size_counts.erase(size);
  }
  out.total_seconds = seconds_since(window_started_);
  window_base_ = std::move(cur);
  window_started_ = Clock::now();
  return out;
}

}  // namespace apf::serve
