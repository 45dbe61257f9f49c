#pragma once
// Unified inter-op/intra-op task scheduler — the single source of threads
// for every parallel cycle in the library. One work-stealing pool runs
// both task kinds:
//
//   * inter-op tasks: whole inference forward passes, submitted by
//     serve::Server workers as TaskKind::kForward (serve/server.cpp);
//   * intra-op tasks: gemm row panels and parallel_for chunks, submitted
//     as TaskKind::kPanel by the apf::gemm dispatcher and parallel_for.
//
// The pool replaces PR 5's flat job queue + static per-worker thread
// budgets (serve::Server used to carve the pool across busy workers with
// ThreadLimitGuard): capacity now follows load instead of a partition —
// the PyTorch inter-op/intra-op model, with one shared pool.
//
// Scheduling model:
//  * Each pool worker owns a deque of jobs. A job submitted from a worker
//    lands in that worker's deque (LIFO local push/pop: newest = most
//    cache-hot); jobs from non-pool threads (main, serve workers, clients)
//    land in a shared inbox. Idle workers steal from the FIFO end of the
//    inbox and of other workers' deques (oldest = biggest remaining work).
//  * A job carries `chunks` claims on a shared ticket counter, so any
//    number of threads can join one job: a multi-chunk gemm dispatch is
//    one job that submitter and stealers drain together.
//  * TaskGroup::wait() PARTICIPATES: the waiting thread drains the
//    not-yet-claimed chunks of its own group's jobs (related work) and
//    blocks only for chunks already running on other threads. This is
//    what lets nested intra-op parallelism run inside an inter-op task
//    without oversubscription or deadlock: a nested region's submitter
//    immediately becomes its first executor, idle workers steal the rest,
//    and a width-1 configuration simply runs everything on the caller.
//  * Parallel regions NEST: a parallel_for or gemm issued from inside a
//    task submits to the same shared pool (PR 5 ran nested regions
//    serially).
//  * Execution concurrency is BOUNDED by num_threads(), process-wide: a
//    thread holds one of num_threads() permits while it runs chunks
//    (reentrant for nested regions), whether the work was scheduled,
//    participated, or inline. Any number of threads may submit and wait,
//    but excess submitters park on the gate instead of oversubscribing
//    the host — N clients on a small machine serialize their compute
//    instead of timeslicing it.
//
// Width resolution: num_threads() is set_num_threads() > APF_NUM_THREADS >
// hardware_concurrency. The pool keeps num_threads() - 1 workers (spawned
// lazily); the submitting thread always participates. ThreadLimitGuard
// still caps the CHUNK COUNT of regions submitted by the guarded thread
// (a limit of 1 keeps a region inline and serial — kernel benchmarks use
// this); it no longer partitions the pool between threads.
//
// Determinism: the scheduler only changes WHICH thread runs a chunk,
// never what the chunk computes; every user in this library writes
// disjoint outputs per chunk, so results are bitwise independent of the
// thread count, the deque a job landed in, and who stole what. The gemm
// dispatcher strengthens this to a contract (see gemm.h).

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace apf {

/// Global parallel width: set_num_threads() > APF_NUM_THREADS > hardware
/// concurrency. Always >= 1.
int num_threads();

/// Sets the global parallel width. n >= 1 pins it; n <= 0 restores the
/// automatic resolution (environment variable, then hardware concurrency).
/// The pool grows lazily on the next submission; it never shrinks its OS
/// threads — excess workers just idle.
void set_num_threads(int n);

/// Per-thread width cap installed by ThreadLimitGuard (0 = uncapped).
int thread_limit();

/// RAII cap on the calling thread's parallel width. A limit of 1 forces
/// every parallel region entered by this thread to run inline and serial;
/// k > 1 lets its regions submit at most k chunks (so at most k threads,
/// itself included, ever run one). Guards nest; the previous limit is
/// restored on destruction. Since PR 6 this caps only regions submitted
/// by the guarded thread — it no longer partitions the shared pool, which
/// balances by work stealing instead.
class ThreadLimitGuard {
 public:
  explicit ThreadLimitGuard(int limit);
  ~ThreadLimitGuard();
  ThreadLimitGuard(const ThreadLimitGuard&) = delete;
  ThreadLimitGuard& operator=(const ThreadLimitGuard&) = delete;

 private:
  int prev_;
};

/// What a task is, for scheduler observability (serve::InferenceStats
/// reports the counts): kForward = inter-op (a whole inference forward
/// pass), kPanel = intra-op (gemm row panels, parallel_for chunks).
enum class TaskKind : int { kGeneric = 0, kForward = 1, kPanel = 2 };

/// Process-wide scheduler counters (monotone; snapshot and diff to scope a
/// window). Tasks are counted per CHUNK at submission — including regions
/// that end up running inline (single chunk, width 1), so the counts
/// describe the submitted parallel work independent of thread count. Work
/// that never forms a region at all (a parallel_for below its grain, a
/// gemm below its flops floor) is not counted. Steals count job
/// acquisitions from a foreign deque or the shared inbox and therefore
/// stay 0 at width 1.
struct SchedulerStats {
  std::uint64_t steals = 0;
  std::uint64_t forward_tasks = 0;
  std::uint64_t panel_tasks = 0;
  std::uint64_t generic_tasks = 0;
};

/// Snapshot of the process-wide counters above.
SchedulerStats scheduler_stats();

namespace detail {
/// Width a parallel region entered by the calling thread may use right
/// now: min(num_threads(), thread_limit()). Nested regions are no longer
/// collapsed to 1 — they submit to the shared pool and compose.
int parallel_width();

struct Job;
struct GroupState;
}  // namespace detail

/// Handle for a set of tasks submitted to the shared scheduler. submit()
/// enqueues and returns immediately; wait() participates (drains the
/// group's own unclaimed chunks, then blocks only for chunks in flight on
/// other threads) and rethrows the first exception any task threw after
/// every task finished. Groups nest freely: a task may create and wait on
/// its own group. A group is reusable after wait() returns; the
/// destructor waits for anything still outstanding.
class TaskGroup {
 public:
  TaskGroup();
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits one job of `chunks` tickets; f(i) runs for every i in
  /// [0, chunks), on whichever threads claim the tickets. The callable is
  /// copied into the job, so it may outlive the caller's frame; whatever
  /// it captures by reference must stay alive until wait() returns. At
  /// width 1 (globally or under ThreadLimitGuard) the chunks run inline
  /// and serial right here — still counted in SchedulerStats, with
  /// failures still surfacing at wait() — identical observable behavior
  /// to the scheduled path.
  template <class F>
  void submit(std::int64_t chunks, F&& f,
              TaskKind kind = TaskKind::kGeneric) {
    if (chunks <= 0) return;
    submit_owned(chunks, std::function<void(std::int64_t)>(std::forward<F>(f)),
                 kind);
  }

  /// Drains the group's unclaimed work, blocks for the in-flight
  /// remainder, rethrows the first task exception.
  void wait();

 private:
  friend class ThreadPool;
  void submit_owned(std::int64_t chunks, std::function<void(std::int64_t)> f,
                    TaskKind kind);
  std::unique_ptr<detail::GroupState> state_;
};

/// The process-wide scheduler. Use through parallel_for / run_chunks /
/// TaskGroup; the class is public so the gemm dispatcher and tests can
/// size chunks explicitly.
class ThreadPool {
 public:
  /// The lazily created global pool (workers spawn on first submission).
  static ThreadPool& global();

  /// Runs chunk(i) for every i in [0, chunks) and blocks until all chunks
  /// completed — one job on the shared scheduler; the calling thread
  /// participates and idle or stealing workers help. Chunks must be safe
  /// to run concurrently for distinct i. The first exception thrown by a
  /// chunk is rethrown on the caller after every chunk finished.
  /// Reentrant: a region issued from inside a chunk submits to the same
  /// pool (nested parallelism composes; width-1 regions run inline).
  template <class F>
  void run_chunks(std::int64_t chunks, F&& f,
                  TaskKind kind = TaskKind::kPanel) {
    using Fn = std::remove_reference_t<F>;
    run(chunks,
        [](void* ctx, std::int64_t i) { (*static_cast<Fn*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(&f)), kind);
  }

  /// Spawned worker threads (monotone; excludes participating callers).
  int worker_count() const;

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  friend class TaskGroup;
  ThreadPool();
  using RawFn = void (*)(void*, std::int64_t);
  void run(std::int64_t chunks, RawFn fn, void* ctx, TaskKind kind);

  struct Impl;
  Impl* impl_;
};

}  // namespace apf
