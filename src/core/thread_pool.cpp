#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>
#include <utility>

#include "core/thread_annotations.h"

namespace apf {
namespace detail {

/// One schedulable job: `n` tickets on a shared claim counter, so any
/// number of threads (submitter, pool workers, stealers) can drain it
/// together. The job is shared_ptr-held by its group and by whichever
/// deques advertise it; once the ticket counter passes n the job is
/// inert — late claimers read only `next`/`n` and never touch `fn` or
/// `group`, so an exhausted job lingering in a deque cannot dangle even
/// after the submitting frame is gone.
struct Job {
  void (*fn)(void*, std::int64_t) = nullptr;
  void* ctx = nullptr;
  /// Set when the callable is owned by the job (TaskGroup::submit); raw
  /// fn/ctx point at a caller frame otherwise (run_chunks, which does
  /// not return until the job completed).
  std::function<void(std::int64_t)> owned;
  std::int64_t n = 0;
  std::atomic<std::int64_t> next{0};
  GroupState* group = nullptr;

  bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= n;
  }
};

/// Completion state shared by every job of one TaskGroup. `outstanding`
/// counts submitted-but-unfinished chunks across the group's jobs; the
/// mutex is the happens-before edge between a chunk's writes and the
/// waiter that observes its completion.
struct GroupState {
  Mutex mu;
  CondVar done;
  std::int64_t outstanding APF_GUARDED_BY(mu) = 0;
  /// First failure wins.
  std::exception_ptr error APF_GUARDED_BY(mu);
  std::vector<std::shared_ptr<Job>> jobs APF_GUARDED_BY(mu);
};

}  // namespace detail

namespace {

using detail::GroupState;
using detail::Job;

thread_local int t_worker_index = -1;  // -1 = not a pool worker
thread_local int t_limit = 0;

std::atomic<int> g_user_threads{0};

// ------------------------------------------------------- execution gate
//
// Bounds EXECUTION concurrency by num_threads(), process-wide: a thread
// must hold a permit while it runs chunks, and only num_threads() permits
// exist. The pool alone cannot guarantee this bound — any number of
// non-pool threads (serve workers, test clients) may submit and
// participate concurrently, and without the gate each of them executes
// its own inline or participated work, oversubscribing the host (N
// compute-bound threads timeslicing over num_threads() cores thrash
// caches and run slower than serial). With the gate, excess submitters
// park on a condition variable instead of competing for cycles.
//
// The gate is reentrant per thread (a nested region inside a running
// chunk executes under the outer permit) and is only ever acquired with
// no scheduler locks held. Deadlock-freedom: tickets are claimed inside
// drain_job, i.e. only by permit holders, so a thread blocked in
// wait_on_group waits exclusively on permit-holding threads, which never
// block on the gate (reentrancy) — every wait-for edge ends at a thread
// that is making progress.
struct ExecGate {
  Mutex mu;
  CondVar cv;
  int active APF_GUARDED_BY(mu) = 0;
};
ExecGate g_gate;
thread_local int t_permit_depth = 0;

/// RAII permit: blocks in the constructor until an execution slot is
/// free (immediately when the thread already holds one).
struct PermitGuard {
  PermitGuard() {
    if (t_permit_depth++ > 0) return;
    MutexLock lk(g_gate.mu);
    while (g_gate.active >= num_threads()) g_gate.cv.wait(g_gate.mu);
    ++g_gate.active;
  }
  ~PermitGuard() {
    if (--t_permit_depth > 0) return;
    {
      MutexLock lk(g_gate.mu);
      --g_gate.active;
    }
    g_gate.cv.notify_one();
  }
  PermitGuard(const PermitGuard&) = delete;
  PermitGuard& operator=(const PermitGuard&) = delete;
};

// Scheduler observability counters (scheduler_stats()).
std::atomic<std::uint64_t> g_steals{0};
std::atomic<std::uint64_t> g_forward_tasks{0};
std::atomic<std::uint64_t> g_panel_tasks{0};
std::atomic<std::uint64_t> g_generic_tasks{0};

int env_or_hardware_threads() {
  static const int resolved = [] {
    if (const char* e = std::getenv("APF_NUM_THREADS")) {
      char* end = nullptr;
      const long n = std::strtol(e, &end, 10);
      if (end != e && n >= 1 && n <= 4096) return static_cast<int>(n);
      std::fprintf(stderr,
                   "[apf::ThreadPool] ignoring APF_NUM_THREADS=\"%s\" "
                   "(need an integer in [1, 4096])\n",
                   e);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return resolved;
}

void count_submission(TaskKind kind, std::int64_t chunks) {
  const std::uint64_t n = static_cast<std::uint64_t>(chunks);
  switch (kind) {
    case TaskKind::kForward:
      g_forward_tasks.fetch_add(n, std::memory_order_relaxed);
      break;
    case TaskKind::kPanel:
      g_panel_tasks.fetch_add(n, std::memory_order_relaxed);
      break;
    case TaskKind::kGeneric:
      g_generic_tasks.fetch_add(n, std::memory_order_relaxed);
      break;
  }
}

// Claims and runs chunks of one job until its ticket counter is
// exhausted. Every claimed chunk is accounted back to the job's group;
// the completion that zeroes a group's outstanding count wakes its
// waiters. A claimed chunk always runs to completion, so claimed work is
// never lost even across pool shutdown.
void drain_job(Job& job) {
  for (;;) {
    const std::int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    std::exception_ptr err;
    try {
      job.fn(job.ctx, i);
    } catch (...) {
      err = std::current_exception();
    }
    GroupState& g = *job.group;
    MutexLock lk(g.mu);
    if (err && !g.error) g.error = err;
    if (--g.outstanding == 0) g.done.notify_all();
  }
}

// Participate-then-block wait shared by TaskGroup::wait and the inline
// dispatch in ThreadPool::run: drain the group's own unclaimed chunks
// first, then sleep only for chunks actively running on other threads.
// Deadlock-free by induction on nesting depth — a blocked thread has no
// unclaimed work of its own, every wait-for edge points at a thread
// actively executing a chunk, and the deepest nested region always has
// either unclaimed chunks (its waiter drains them) or only running ones.
void wait_on_group(GroupState& s) {
  MutexLock lk(s.mu);
  for (;;) {
    std::shared_ptr<Job> job;
    while (!s.jobs.empty()) {
      if (!s.jobs.back()->exhausted()) {
        job = s.jobs.back();  // stays listed for other participants
        break;
      }
      s.jobs.pop_back();
    }
    if (job) {
      lk.unlock();
      {
        PermitGuard permit;
        drain_job(*job);
      }
      lk.lock();
      continue;
    }
    if (s.outstanding == 0) break;
    // Woken either by the last completion or by a new job submitted to
    // this group (the loop re-scans s.jobs and participates).
    s.done.wait(s.mu);
  }
  s.jobs.clear();
  std::exception_ptr err = s.error;
  s.error = nullptr;
  lk.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace

int num_threads() {
  const int user = g_user_threads.load(std::memory_order_acquire);
  return user > 0 ? user : env_or_hardware_threads();
}

void set_num_threads(int n) {
  g_user_threads.store(n > 0 ? n : 0, std::memory_order_release);
  // A wider gate may unblock threads parked on execution permits.
  g_gate.cv.notify_all();
}

int thread_limit() { return t_limit; }

ThreadLimitGuard::ThreadLimitGuard(int limit) : prev_(t_limit) {
  t_limit = limit > 0 ? limit : 1;
}

ThreadLimitGuard::~ThreadLimitGuard() { t_limit = prev_; }

SchedulerStats scheduler_stats() {
  SchedulerStats s;
  s.steals = g_steals.load(std::memory_order_relaxed);
  s.forward_tasks = g_forward_tasks.load(std::memory_order_relaxed);
  s.panel_tasks = g_panel_tasks.load(std::memory_order_relaxed);
  s.generic_tasks = g_generic_tasks.load(std::memory_order_relaxed);
  return s;
}

namespace detail {
int parallel_width() {
  const int width = num_threads();
  return t_limit > 0 && t_limit < width ? t_limit : width;
}
}  // namespace detail

struct ThreadPool::Impl {
  /// Hard cap on spawned workers; num_threads() above this still widens
  /// chunk counts, the extra width just runs on participating callers.
  static constexpr int kMaxWorkers = 512;

  /// A work deque plus its lock. Owners push and scan at the back (LIFO:
  /// the newest job is the cache-hot one); stealers take from the front
  /// (FIFO: the oldest job has the most unclaimed work left). Jobs stay
  /// advertised until observed exhausted, so several threads can join
  /// one multi-chunk job; exhausted jobs are dropped lazily during scans.
  struct WorkDeque {
    Mutex mu;
    std::deque<std::shared_ptr<Job>> jobs APF_GUARDED_BY(mu);

    std::shared_ptr<Job> take(bool lifo) {
      MutexLock lk(mu);
      while (!jobs.empty()) {
        std::shared_ptr<Job>& slot = lifo ? jobs.back() : jobs.front();
        if (!slot->exhausted()) return slot;
        if (lifo) {
          jobs.pop_back();
        } else {
          jobs.pop_front();
        }
      }
      return nullptr;
    }

    void push(std::shared_ptr<Job> job) {
      MutexLock lk(mu);
      jobs.push_back(std::move(job));
    }
  };

  /// Fixed-capacity slab so worker i can index queues[j] with no extra
  /// lock while the pool is still growing; spawned_count publishes how
  /// many slots have a live worker behind them.
  std::unique_ptr<WorkDeque[]> queues{new WorkDeque[kMaxWorkers]};
  std::atomic<int> spawned_count{0};
  WorkDeque inbox;  ///< submissions from non-pool threads

  Mutex sleep_mu;
  CondVar sleep_cv;
  /// Bumped per submission; guards lost wakeups.
  std::uint64_t epoch APF_GUARDED_BY(sleep_mu) = 0;
  int sleepers APF_GUARDED_BY(sleep_mu) = 0;
  bool stop APF_GUARDED_BY(sleep_mu) = false;

  Mutex spawn_mu;
  std::vector<std::thread> workers APF_GUARDED_BY(spawn_mu);

  // Grows the pool toward num_threads() - 1 workers (never shrinks; the
  // submitting thread is always a participant, hence the -1).
  void ensure_workers() {
    const int target = std::min(num_threads() - 1, kMaxWorkers);
    if (spawned_count.load(std::memory_order_acquire) >= target) return;
    MutexLock lk(spawn_mu);
    while (static_cast<int>(workers.size()) < target) {
      const int index = static_cast<int>(workers.size());
      workers.emplace_back([this, index] { worker_main(index); });
      spawned_count.store(index + 1, std::memory_order_release);
    }
  }

  // Next job for worker `index`: own deque from the LIFO end, then the
  // inbox, then the other workers' deques from the FIFO end. Inbox and
  // foreign acquisitions count as steals.
  std::shared_ptr<Job> find_job(int index) {
    if (std::shared_ptr<Job> job = queues[index].take(/*lifo=*/true))
      return job;
    if (std::shared_ptr<Job> job = inbox.take(/*lifo=*/false)) {
      g_steals.fetch_add(1, std::memory_order_relaxed);
      return job;
    }
    const int n = spawned_count.load(std::memory_order_acquire);
    for (int off = 1; off < n; ++off) {
      const int victim = (index + off) % n;
      if (std::shared_ptr<Job> job = queues[victim].take(/*lifo=*/false)) {
        g_steals.fetch_add(1, std::memory_order_relaxed);
        return job;
      }
    }
    return nullptr;
  }

  void worker_main(int index) {
    t_worker_index = index;
    for (;;) {
      std::uint64_t seen;
      {
        MutexLock lk(sleep_mu);
        if (stop) return;
        seen = epoch;
      }
      if (std::shared_ptr<Job> job = find_job(index)) {
        PermitGuard permit;
        drain_job(*job);
        continue;
      }
      MutexLock lk(sleep_mu);
      if (stop) return;
      if (epoch != seen) continue;  // new work arrived during the scan
      ++sleepers;
      sleep_cv.wait(sleep_mu);
      --sleepers;
    }
  }

  // Registers a job with its group, advertises it (submitting worker's
  // own deque, LIFO end, or the shared inbox for non-pool threads), and
  // wakes sleeping workers. Also wakes the group's waiters so a thread
  // blocked in wait() starts participating in the new job.
  void submit(GroupState& state, std::shared_ptr<Job> job, TaskKind kind) {
    job->group = &state;
    count_submission(kind, job->n);
    {
      MutexLock lk(state.mu);
      state.outstanding += job->n;
      state.jobs.push_back(job);
      state.done.notify_all();
    }
    if (t_worker_index >= 0) {
      queues[t_worker_index].push(std::move(job));
    } else {
      inbox.push(std::move(job));
    }
    ensure_workers();
    {
      MutexLock lk(sleep_mu);
      ++epoch;
      if (sleepers == 0) return;
    }
    sleep_cv.notify_all();
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(impl_->sleep_mu);
    impl_->stop = true;
  }
  impl_->sleep_cv.notify_all();
  // Move the worker handles out under spawn_mu, then join unlocked
  // (workers never take spawn_mu, but joining under a lock is a habit
  // worth not teaching).
  std::vector<std::thread> workers;
  {
    MutexLock lk(impl_->spawn_mu);
    workers.swap(impl_->workers);
  }
  for (std::thread& t : workers) t.join();
  delete impl_;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::worker_count() const {
  return impl_->spawned_count.load(std::memory_order_acquire);
}

TaskGroup::TaskGroup() : state_(std::make_unique<detail::GroupState>()) {}

TaskGroup::~TaskGroup() {
  // A group abandoned with work in flight would dangle; drain it. The
  // normal path (wait() already called) sees nothing outstanding.
  try {
    wait();
  } catch (...) {
    // Destructors swallow task exceptions; call wait() to observe them.
  }
}

void TaskGroup::submit_owned(std::int64_t chunks,
                             std::function<void(std::int64_t)> f,
                             TaskKind kind) {
  // Width 1 (globally or via ThreadLimitGuard) runs inline and serial on
  // the submitting thread, like every other parallel region; failures
  // still surface at wait(), uniformly with the scheduled path. The
  // chunks still count toward the SchedulerStats task counters — they
  // describe submitted regions, not worker hand-offs — so the numbers
  // are comparable across thread counts (steals, by contrast, can only
  // happen on the scheduled path).
  if (detail::parallel_width() <= 1) {
    count_submission(kind, chunks);
    PermitGuard permit;  // inline work still respects the execution bound
    for (std::int64_t i = 0; i < chunks; ++i) {
      try {
        f(i);
      } catch (...) {
        MutexLock lk(state_->mu);
        if (!state_->error) state_->error = std::current_exception();
      }
    }
    return;
  }
  auto job = std::make_shared<Job>();
  job->owned = std::move(f);
  job->fn = [](void* ctx, std::int64_t i) {
    (*static_cast<std::function<void(std::int64_t)>*>(ctx))(i);
  };
  job->ctx = &job->owned;
  job->n = chunks;
  ThreadPool::global().impl_->submit(*state_, std::move(job), kind);
}

void TaskGroup::wait() { wait_on_group(*state_); }

void ThreadPool::run(std::int64_t chunks, RawFn fn, void* ctx,
                     TaskKind kind) {
  if (chunks <= 0) return;
  // Inline when there is nothing to share: a single chunk, or a width of
  // 1 (global or via ThreadLimitGuard). Nested regions are NOT forced
  // inline — they submit to the shared pool and compose with whatever
  // else is running (the PR 5 pool ran them serially instead).
  if (chunks == 1 || detail::parallel_width() <= 1) {
    // Inline regions still count (see submit_owned): the task counters
    // describe the work submitted, whichever thread ends up running it.
    count_submission(kind, chunks);
    PermitGuard permit;  // inline work still respects the execution bound
    for (std::int64_t i = 0; i < chunks; ++i) fn(ctx, i);
    return;
  }

  GroupState state;
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->ctx = ctx;  // caller frame: stays valid until wait_on_group returns
  job->n = chunks;
  impl_->submit(state, std::move(job), kind);
  wait_on_group(state);
}

}  // namespace apf
