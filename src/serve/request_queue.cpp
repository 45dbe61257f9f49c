#include "serve/request_queue.h"

#include <algorithm>

#include "core/check.h"

namespace apf::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Validates the flush deadline and converts it to the clock's own tick.
// The upper bound keeps `enqueued + deadline` inside the clock's range.
Clock::duration checked_deadline(
    std::chrono::duration<double, std::milli> deadline) {
  const std::chrono::duration<double, std::milli> max_deadline =
      Clock::duration::max() / 2;
  APF_CHECK(deadline.count() >= 0.0 && deadline <= max_deadline,
            "RequestQueue: deadline must be finite and in [0, "
                << max_deadline.count() << "] ms, got " << deadline.count()
                << " ms");
  return std::chrono::duration_cast<Clock::duration>(deadline);
}

}  // namespace

RequestQueue::RequestQueue(std::int64_t max_pending,
                           std::int64_t bucket_granularity,
                           std::int64_t max_batch,
                           std::chrono::duration<double, std::milli> deadline)
    : max_pending_(max_pending),
      granularity_(bucket_granularity),
      max_batch_(max_batch),
      deadline_(checked_deadline(deadline)) {
  APF_CHECK(max_pending_ > 0,
            "RequestQueue: max_pending must be positive, got " << max_pending_);
  APF_CHECK(granularity_ > 0,
            "RequestQueue: bucket granularity must be positive, got "
                << granularity_);
  APF_CHECK(max_batch_ > 0,
            "RequestQueue: max_batch must be positive, got " << max_batch_);
}

std::int64_t RequestQueue::bucket_of(std::int64_t length) const {
  if (length <= 0) return granularity_;
  return (length + granularity_ - 1) / granularity_ * granularity_;
}

bool RequestQueue::push(Request&& r) {
  MutexLock lock(mu_);
  while (!closed_ && pending_ >= max_pending_) not_full_.wait(mu_);
  if (closed_) return false;
  buckets_[key_of(r)].push_back(std::move(r));
  ++pending_;
  ready_.notify_one();
  return true;
}

bool RequestQueue::try_push(Request&& r) {
  MutexLock lock(mu_);
  if (closed_ || pending_ >= max_pending_) return false;
  buckets_[key_of(r)].push_back(std::move(r));
  ++pending_;
  ready_.notify_one();
  return true;
}

std::optional<RequestQueue::BucketKey> RequestQueue::ripe_bucket() const {
  // Full bucket: the one whose front (oldest member) arrived first wins,
  // so two perpetually-full buckets cannot starve each other.
  std::optional<BucketKey> full_key;
  std::uint64_t full_front = 0;
  // Oldest request overall, for the deadline / drain policies.
  std::optional<BucketKey> oldest_key;
  std::uint64_t oldest_id = 0;
  Clock::time_point oldest_at{};
  for (const auto& [key, q] : buckets_) {
    if (q.empty()) continue;
    const Request& front = q.front();
    if (static_cast<std::int64_t>(q.size()) >= max_batch_ &&
        (!full_key || front.id < full_front)) {
      full_key = key;
      full_front = front.id;
    }
    if (!oldest_key || front.id < oldest_id) {
      oldest_key = key;
      oldest_id = front.id;
      oldest_at = front.enqueued;
    }
  }
  if (full_key) return full_key;
  if (!oldest_key) return std::nullopt;  // nothing pending
  if (closed_) return oldest_key;        // drain ignores the deadline
  if (Clock::now() - oldest_at >= deadline_) return oldest_key;
  return std::nullopt;
}

std::vector<Request> RequestQueue::pop_batch() {
  while (wait_ready()) {
    std::vector<Request> batch = try_pop_batch();
    if (!batch.empty()) return batch;  // else a peer won the race
  }
  return {};  // closed and drained: worker exit signal
}

void RequestQueue::wait_for_change() {
  if (pending_ > 0 && !closed_) {
    // Part-full buckets: sleep until the oldest request's deadline (a
    // new push or close() wakes us earlier).
    Clock::time_point oldest_at{};
    bool have = false;
    for (const auto& [k, q] : buckets_) {
      (void)k;
      if (!q.empty() && (!have || q.front().enqueued < oldest_at)) {
        oldest_at = q.front().enqueued;
        have = true;
      }
    }
    ready_.wait_until(mu_, oldest_at + deadline_);
  } else {
    ready_.wait(mu_);
  }
}

bool RequestQueue::wait_ready() {
  MutexLock lock(mu_);
  for (;;) {
    if (ripe_bucket()) return true;
    if (closed_ && pending_ == 0) return false;
    wait_for_change();
  }
}

std::vector<Request> RequestQueue::take_locked(const BucketKey& key) {
  std::deque<Request>& q = buckets_[key];
  std::vector<Request> batch;
  const std::int64_t n =
      std::min<std::int64_t>(max_batch_, static_cast<std::int64_t>(q.size()));
  batch.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    batch.push_back(std::move(q.front()));
    q.pop_front();
  }
  if (q.empty()) buckets_.erase(key);
  pending_ -= n;
  not_full_.notify_all();
  // Another bucket may also be ripe — let a second worker look.
  if (pending_ > 0) ready_.notify_one();
  return batch;
}

std::vector<Request> RequestQueue::try_pop_batch() {
  MutexLock lock(mu_);
  const std::optional<BucketKey> key = ripe_bucket();
  if (!key) return {};
  return take_locked(*key);
}

void RequestQueue::close() {
  MutexLock lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  ready_.notify_all();
}

bool RequestQueue::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

std::int64_t RequestQueue::pending() const {
  MutexLock lock(mu_);
  return pending_;
}

}  // namespace apf::serve
