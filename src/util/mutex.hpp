// Annotated mutex / scoped-lock / condition-variable wrappers — the only
// sanctioned synchronization primitives outside src/util/ (enforced by
// tools/lint_kernels.py rule kernels-raw-mutex).
//
// util::Mutex wraps std::mutex as a Clang thread-safety CAPABILITY, so
// members declared DG_GUARDED_BY(mu_) and helpers declared DG_REQUIRES(mu_)
// are checked at compile time in the clang -Wthread-safety -Werror CI lane.
// Under GCC (the local toolchain) everything compiles to the plain std
// primitives with zero overhead.
//
// CondVar deliberately exposes only single-shot waits:
//
//   while (!ready_locked()) cv_.wait(mu_);        // ready_locked() REQUIRES(mu_)
//
// rather than the std::condition_variable predicate overloads. A predicate
// lambda passed to cv.wait(lock, pred) is analyzed as a standalone function
// that reads GUARDED_BY state without visibly holding the lock, which the
// analysis (correctly, per its model) rejects; an explicit while-loop over a
// DG_REQUIRES-annotated predicate states the same invariant in a form the
// analysis can prove. The loop is also exactly what the predicate overload
// expands to, so behavior is unchanged.
#pragma once

#include "util/thread_annotations.hpp"

#include <condition_variable>
#include <mutex>

namespace dg::util {

class CondVar;

/// std::mutex as an annotated capability. Prefer MutexLock for scopes; call
/// lock()/unlock() directly only from ACQUIRE/RELEASE-annotated functions.
class DG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DG_ACQUIRE() { mu_.lock(); }
  void unlock() DG_RELEASE() { mu_.unlock(); }
  bool try_lock() DG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock over a Mutex (std::lock_guard with SCOPED_CAPABILITY
/// annotations, so the analysis tracks the capability for the scope).
class DG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DG_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DG_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over util::Mutex. Single-shot waits only — callers
/// loop over a DG_REQUIRES-annotated predicate (rationale in the file
/// comment above).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep, and reacquire it before returning.
  /// Spurious wakeups happen; always call inside a predicate loop.
  void wait(Mutex& mu) DG_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership claim so our caller's scope (a MutexLock or an
    // ACQUIRE-annotated function) stays the one true owner. The analysis
    // never sees the inner std::mutex, so the handoff is invisible to it —
    // which matches the caller-observable contract: `mu` is held on entry
    // and on return.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dg::util
