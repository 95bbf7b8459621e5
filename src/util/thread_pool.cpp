#include "util/thread_pool.hpp"

#include "util/env.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

namespace dg::util {

// Broadcast-style pool: each run_chunks() call publishes one job (a function
// plus a chunk counter) under a generation number; workers wake, claim chunk
// indices from the shared atomic counter until exhausted, and report
// completion. The caller claims chunks too, so a pool of N lanes uses N-1
// spawned threads and never context-switches in the N == 1 case.
namespace {
// Set while a thread executes chunks of some pool job. Nested run_chunks
// calls (e.g. pattern simulation invoked from a dataset-build chunk) run
// inline instead of re-entering the pool: the outer level already owns the
// hardware, and inline execution keeps chunk results identical.
thread_local bool t_in_parallel_region = false;
// Waits reported by the chunks this thread drains (report_chunk_wait),
// reset when a drain starts.
thread_local std::uint64_t t_chunk_wait_ns = 0;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}
}  // namespace

// Relaxed per-lane counters, allocated for every pool (including the
// inline-only 1-lane pool, which has no Impl). Observed by lane_stats();
// never read on the execution path itself.
struct ThreadPool::Stats {
  struct Lane {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };
  std::vector<Lane> lanes;
  std::chrono::steady_clock::time_point created = std::chrono::steady_clock::now();

  explicit Stats(int num_lanes) : lanes(static_cast<std::size_t>(num_lanes)) {}
};

struct ThreadPool::Impl {
  Mutex submit_mu;  // serializes external run_chunks callers
  Mutex mu;
  CondVar cv_job;    // workers wait for a new generation
  CondVar cv_done;   // caller waits for pending == 0
  std::uint64_t generation DG_GUARDED_BY(mu) = 0;
  bool shutdown DG_GUARDED_BY(mu) = false;

  const std::function<void(int)>* job DG_GUARDED_BY(mu) = nullptr;
  std::atomic<int> next_chunk{0};
  // Published with the generation and copied out under `mu` by every lane
  // before draining; drain() takes them as plain parameters so no guarded
  // state is ever read on the chunk-claiming path. (Before the annotation
  // pass these were read inside drain() with no lock held — safe only
  // through the generation handshake, which the analysis rightly cannot
  // prove; the copy-out makes the discipline explicit.)
  int num_chunks DG_GUARDED_BY(mu) = 0;
  int fair_share DG_GUARDED_BY(mu) = 0;   // ceil(num_chunks / lanes) for steal accounting
  int pending_workers DG_GUARDED_BY(mu) = 0;  // workers still inside the current generation

  Mutex error_mu;
  std::exception_ptr first_error DG_GUARDED_BY(error_mu);

  std::vector<std::thread> workers;

  void work_loop(Stats& stats, int lane) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      int nchunks = 0;
      int fair = 0;
      {
        const auto idle_start = std::chrono::steady_clock::now();
        MutexLock lock(mu);
        while (!shutdown && generation == seen) cv_job.wait(mu);
        stats.lanes[static_cast<std::size_t>(lane)].idle_ns.fetch_add(
            elapsed_ns(idle_start, std::chrono::steady_clock::now()),
            std::memory_order_relaxed);
        if (shutdown) return;
        seen = generation;
        fn = job;
        nchunks = num_chunks;
        fair = fair_share;
      }
      drain(*fn, stats, lane, nchunks, fair);
      {
        MutexLock lock(mu);
        if (--pending_workers == 0) cv_done.notify_one();
      }
    }
  }

  /// `num_chunks`/`fair_share` arrive by value (copied out under `mu` by the
  /// caller) — the drain loop itself touches only the atomic chunk counter.
  void drain(const std::function<void(int)>& fn, Stats& stats, int lane, int num_chunks,
             int fair_share) {
    const auto busy_start = std::chrono::steady_clock::now();
    std::uint64_t executed = 0;
    t_in_parallel_region = true;
    t_chunk_wait_ns = 0;
    for (;;) {
      const int c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      ++executed;
      try {
        fn(c);
      } catch (...) {
        MutexLock lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
    t_in_parallel_region = false;
    Stats::Lane& counters = stats.lanes[static_cast<std::size_t>(lane)];
    counters.chunks.fetch_add(executed, std::memory_order_relaxed);
    const std::uint64_t fair = static_cast<std::uint64_t>(fair_share);
    if (executed > fair)
      counters.steals.fetch_add(executed - fair, std::memory_order_relaxed);
    const std::uint64_t elapsed = elapsed_ns(busy_start, std::chrono::steady_clock::now());
    const std::uint64_t waited = std::min(t_chunk_wait_ns, elapsed);
    counters.busy_ns.fetch_add(elapsed - waited, std::memory_order_relaxed);
    counters.idle_ns.fetch_add(waited, std::memory_order_relaxed);
  }
};

void report_chunk_wait(std::uint64_t ns) { t_chunk_wait_ns += ns; }

InlineParallelGuard::InlineParallelGuard() : prev_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

InlineParallelGuard::~InlineParallelGuard() { t_in_parallel_region = prev_; }

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  stats_ = new Stats(num_threads_);
  if (num_threads_ == 1) return;  // inline-only pool, no workers, no Impl
  impl_ = new Impl;
  impl_->workers.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i)
    impl_->workers.emplace_back([this, i] { impl_->work_loop(*stats_, i + 1); });
}

ThreadPool::~ThreadPool() {
  if (impl_ != nullptr) {
    {
      MutexLock lock(impl_->mu);
      impl_->shutdown = true;
    }
    impl_->cv_job.notify_all();
    for (auto& w : impl_->workers) w.join();
    delete impl_;
  }
  delete stats_;
}

bool ThreadPool::runs_inline() const { return impl_ == nullptr || t_in_parallel_region; }

void ThreadPool::run_chunks(int num_chunks, const std::function<void(int)>& fn) {
  if (num_chunks <= 0) return;
  if (num_chunks == 1 || runs_inline()) {
    for (int c = 0; c < num_chunks; ++c) fn(c);
    // Inline execution is the nested/serial fast path: count the chunks on
    // lane 0 but skip the clock reads that full accounting would cost.
    stats_->lanes[0].chunks.fetch_add(static_cast<std::uint64_t>(num_chunks),
                                      std::memory_order_relaxed);
    return;
  }
  const int fair = (num_chunks + num_threads_ - 1) / num_threads_;
  MutexLock submit_lock(impl_->submit_mu);
  {
    // Cleared before the new generation is published below: the previous
    // generation fully drained (pending == 0 was awaited), so no lane can
    // still be writing, and no lane may start the new job yet.
    MutexLock lock(impl_->error_mu);
    impl_->first_error = nullptr;
  }
  {
    MutexLock lock(impl_->mu);
    impl_->job = &fn;
    impl_->num_chunks = num_chunks;
    impl_->fair_share = fair;
    impl_->next_chunk.store(0, std::memory_order_relaxed);
    impl_->pending_workers = static_cast<int>(impl_->workers.size());
    ++impl_->generation;
  }
  impl_->cv_job.notify_all();
  impl_->drain(fn, *stats_, 0, num_chunks, fair);  // caller participates as lane 0
  {
    MutexLock lock(impl_->mu);
    while (impl_->pending_workers != 0) impl_->cv_done.wait(impl_->mu);
  }
  // Every worker has reported done, so no lane can still be writing — but
  // the read still takes error_mu: the handshake ordering is a dynamic fact
  // the capability analysis (rightly) refuses to assume.
  std::exception_ptr err;
  {
    MutexLock lock(impl_->error_mu);
    err = impl_->first_error;
  }
  if (err) std::rethrow_exception(err);
}

std::vector<PoolLaneStats> ThreadPool::lane_stats() const {
  std::vector<PoolLaneStats> out(stats_->lanes.size());
  for (std::size_t i = 0; i < stats_->lanes.size(); ++i) {
    out[i].chunks = stats_->lanes[i].chunks.load(std::memory_order_relaxed);
    out[i].steals = stats_->lanes[i].steals.load(std::memory_order_relaxed);
    out[i].busy_ns = stats_->lanes[i].busy_ns.load(std::memory_order_relaxed);
    out[i].idle_ns = stats_->lanes[i].idle_ns.load(std::memory_order_relaxed);
  }
  return out;
}

double ThreadPool::seconds_alive() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - stats_->created)
      .count();
}

int default_num_threads() {
  // Only a set value is range-checked: a host with more than kMaxThreads
  // cores keeps its hardware default without a warning.
  constexpr long long kUnset = std::numeric_limits<long long>::min();
  const long long env = env_int("DEEPGATE_THREADS", kUnset);
  if (env != kUnset && knob_in_range("DEEPGATE_THREADS", env, 1, kMaxThreads))
    return static_cast<int>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {
Mutex g_pool_mu;  // guards creation/replacement of the global pool
std::atomic<ThreadPool*> g_pool{nullptr};  // lock-free hot-path handle
std::unique_ptr<ThreadPool>& global_slot() DG_REQUIRES(g_pool_mu) {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& global_pool() {
  if (ThreadPool* p = g_pool.load(std::memory_order_acquire)) return *p;
  MutexLock lock(g_pool_mu);
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(default_num_threads());
  g_pool.store(slot.get(), std::memory_order_release);
  return *slot;
}

ThreadPool* global_pool_if_created() { return g_pool.load(std::memory_order_acquire); }

void set_global_threads(int num_threads) {
  MutexLock lock(g_pool_mu);
  g_pool.store(nullptr, std::memory_order_release);
  global_slot() = std::make_unique<ThreadPool>(num_threads);
  g_pool.store(global_slot().get(), std::memory_order_release);
}

void parallel_for_chunked(ThreadPool& pool, std::int64_t n, int num_chunks,
                          const std::function<void(int, std::int64_t, std::int64_t)>& body) {
  if (n <= 0 || num_chunks <= 0) return;
  pool.run_chunks(num_chunks, [&](int c) {
    body(c, chunk_begin(n, num_chunks, c), chunk_begin(n, num_chunks, c + 1));
  });
}

}  // namespace dg::util
