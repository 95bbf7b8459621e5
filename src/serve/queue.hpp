// Bounded MPMC queue — the admission queue of the serving loop.
//
// Semantics the server relies on:
//  - push/try_push move from the caller's slot ONLY on success, so a caller
//    whose item was refused (full or closed queue) still owns it and can
//    fulfill its promise with an explicit status instead of leaking a
//    broken_promise.
//  - pop_window is the only consumer op. A free lane blocks in it for the
//    first item, then takes what is already queued, up to a cost budget, an
//    item cap and its fair share of the queue, in the same lock hold. It
//    never waits for more items to arrive: the window is whatever queued
//    while every lane was busy.
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

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

namespace deepgate::serve {

enum class PushResult { kOk, kFull, kClosed };
enum class PopResult { kItem, kClosed };
/// What ended a pop_window take (see there); stats and traces name it.
enum class CloseReason { kBudget, kMaxGraphs, kEmpty, kShare, kDrain };

/// What bounds one pop_window take.
struct WindowLimits {
  std::size_t budget = 0;     ///< close once the summed item cost reaches this (0: one item)
  std::size_t max_items = 1;  ///< ... or the window holds this many items (0 counts as 1)
  std::size_t lanes = 1;      ///< ... or it holds ceil(queued / lanes), its lane's fair
                              ///< share of the queue (0 counts as 1)
};

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

  /// Window pop: clears `out`, blocks until an item is poppable (or close +
  /// drained), then moves queued items into `out`, in FIFO order and in one
  /// lock hold, until the first of: the summed `cost(item)` reaches
  /// `limits.budget`, `out` holds `limits.max_items`, the queue is empty, or
  /// `out` holds ceil(queued / limits.lanes) — the fair share that leaves the
  /// rest for the other lanes, so one lane never takes the whole backlog
  /// while another is about to be free. `reason` names which one ended the
  /// window; an empty queue is kEmpty, or kDrain once the queue is closed.
  /// Returns kClosed, with `out` empty and `reason` untouched, only once the
  /// queue is closed and drained.
  template <typename Cost>
  PopResult pop_window(std::vector<T>& out, CloseReason& reason, const WindowLimits& limits,
                       Cost&& cost) {
    out.clear();
    dg::util::MutexLock lock(mu_);
    while (!poppable_locked()) not_empty_.wait(mu_);
    if (items_.empty()) return PopResult::kClosed;  // only reachable when closed_
    const std::size_t max_items = limits.max_items == 0 ? 1 : limits.max_items;
    const std::size_t lanes = limits.lanes == 0 ? 1 : limits.lanes;
    const std::size_t share = (items_.size() + lanes - 1) / lanes;
    std::size_t taken_cost = 0;
    for (;;) {
      taken_cost += cost(items_.front());
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      if (taken_cost >= limits.budget) {
        reason = CloseReason::kBudget;
        break;
      }
      if (out.size() >= max_items) {
        reason = CloseReason::kMaxGraphs;
        break;
      }
      if (items_.empty()) {
        reason = closed_ ? CloseReason::kDrain : CloseReason::kEmpty;
        break;
      }
      if (out.size() >= share) {
        reason = CloseReason::kShare;
        break;
      }
    }
    not_full_.notify_all();  // every slot freed may unblock a waiting push
    return PopResult::kItem;
  }

  /// Stop accepting items and wake every waiter. Idempotent. Items already
  /// queued remain poppable (drain), paused or not.
  void close() {
    dg::util::MutexLock lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Gate consumers: while paused, pops block even when items are queued —
  /// unless the queue is closed, when draining takes priority.
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

  const std::size_t capacity_;
  mutable dg::util::Mutex mu_;
  dg::util::CondVar not_empty_;
  dg::util::CondVar not_full_;
  std::deque<T> items_ DG_GUARDED_BY(mu_);
  bool closed_ DG_GUARDED_BY(mu_) = false;
  bool pop_paused_ DG_GUARDED_BY(mu_) = false;
};

}  // namespace deepgate::serve
