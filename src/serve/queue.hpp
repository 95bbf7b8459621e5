// Bounded MPMC queue — the admission front end of the serving loop.
//
// Semantics the server relies on:
//  - push/try_push move from the caller's slot ONLY on success, so a caller
//    whose item was refused (full or closed queue) still owns it and can
//    fulfill its promise with an explicit status instead of leaking a
//    broken_promise.
//  - pop_until distinguishes "got an item", "deadline passed" and "closed
//    and drained" — the batcher turns the first into batch growth, the
//    second into a deadline-closed batch and the third into shutdown.
//  - close() wakes every waiter; pops keep draining remaining items (drain
//    overrides pause), pushes fail from then on. Deterministic shutdown
//    builds on this: nothing enqueued before close() is ever lost.
//  - push/try_push run an optional `on_push(depth)` hook under the lock, before
//    any consumer can pop the item: admission counts never trail fulfillment.
//  - set_pop_paused(true) gates consumers without touching producers: items
//    accumulate until capacity and try_push reports kFull — how both the
//    backpressure tests and an operational "hold admissions" switch get a
//    deterministic full-queue state.
//
// All state is behind one annotated util::Mutex; waits are explicit loops
// over DG_REQUIRES-annotated predicates so the clang -Wthread-safety lane
// proves every access (see util/mutex.hpp for why not the std predicate
// overloads).
#pragma once

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>

namespace deepgate::serve {

enum class PushResult { kOk, kFull, kClosed };
enum class PopResult { kItem, kTimeout, kClosed };

/// The default push hook: records nothing.
struct NoPushHook {
  void operator()(std::size_t /*depth*/) const {}
};

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` < 1 is clamped to 1 (a zero-capacity admission queue could
  /// never accept anything).
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocking push: waits while full. Moves from `v` only on kOk; kClosed
  /// leaves `v` untouched for the caller to dispose of. Never returns kFull.
  /// On kOk, `on_push(depth)` runs under the lock; depth includes `v`.
  template <typename OnPush = NoPushHook>
  PushResult push(T& v, OnPush&& on_push = OnPush{}) {
    dg::util::MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.wait(mu_);
    if (closed_) return PushResult::kClosed;
    items_.push_back(std::move(v));
    on_push(items_.size());
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  /// Non-blocking push: kFull instead of waiting. Otherwise as push().
  template <typename OnPush = NoPushHook>
  PushResult try_push(T& v, OnPush&& on_push = OnPush{}) {
    dg::util::MutexLock lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (items_.size() >= capacity_) return PushResult::kFull;
    items_.push_back(std::move(v));
    on_push(items_.size());
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  /// Blocking pop: waits for an item (or close + drained). Never kTimeout.
  PopResult pop(T& out) {
    dg::util::MutexLock lock(mu_);
    while (!poppable_locked()) not_empty_.wait(mu_);
    return take_locked(out);
  }

  /// Timed pop: waits until an item is available or `deadline` passes.
  template <typename Clock, typename Duration>
  PopResult pop_until(T& out, const std::chrono::time_point<Clock, Duration>& deadline) {
    dg::util::MutexLock lock(mu_);
    while (!poppable_locked()) {
      if (not_empty_.wait_until(mu_, deadline) == std::cv_status::timeout) {
        // One last predicate check after the deadline fired: an item (or
        // close) that raced the timeout still wins, matching the std
        // wait_until(pred) contract the server was built against.
        if (poppable_locked()) break;
        return PopResult::kTimeout;
      }
    }
    return take_locked(out);
  }

  /// Stop accepting items and wake every waiter. Idempotent. Items already
  /// queued remain poppable (drain).
  void close() {
    dg::util::MutexLock lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Gate consumers: while paused, pops block (or time out) even when items
  /// are queued — unless the queue is closed, when draining takes priority.
  void set_pop_paused(bool paused) {
    dg::util::MutexLock lock(mu_);
    pop_paused_ = paused;
    if (!paused) not_empty_.notify_all();
  }

  std::size_t size() const {
    dg::util::MutexLock lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }
  bool closed() const {
    dg::util::MutexLock lock(mu_);
    return closed_;
  }

 private:
  bool poppable_locked() const DG_REQUIRES(mu_) {
    if (closed_) return true;  // item or kClosed, either way wake up
    return !pop_paused_ && !items_.empty();
  }
  PopResult take_locked(T& out) DG_REQUIRES(mu_) {
    if (items_.empty()) return PopResult::kClosed;  // only reachable when closed_
    out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return PopResult::kItem;
  }

  const std::size_t capacity_;
  mutable dg::util::Mutex mu_;
  dg::util::CondVar not_empty_;
  dg::util::CondVar not_full_;
  std::deque<T> items_ DG_GUARDED_BY(mu_);
  bool closed_ DG_GUARDED_BY(mu_) = false;
  bool pop_paused_ DG_GUARDED_BY(mu_) = false;
};

}  // namespace deepgate::serve
