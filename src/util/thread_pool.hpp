// Fixed-size thread pool with deterministic chunked execution.
//
// Work is partitioned into contiguous chunks with fixed boundaries
// (chunk c of C over [0, n) is [c*n/C, (c+1)*n/C)), so a caller that keeps
// one accumulator per chunk and reduces them in chunk order gets results
// that do not depend on how chunks were scheduled onto threads. Integer
// accumulations (the bit-parallel simulator) and disjoint writes (one
// design per gnn::execute lane) are therefore bit-identical at every thread
// count; float reductions (trainer replicas) are deterministic for a fixed
// chunk count.
//
// The callers are coarse-grained: gnn::execute, the simulator, the trainer,
// the dataset builder, and each no-grad sweep of a model forward
// (gnn/model_common.cpp). A sweep makes one two-chunk fan-out: the calling
// thread drives the levels while a second lane, if one is idle, computes
// the levels' hidden-side GRU products ahead of it. Forwards that already
// run inside a pool chunk or on a serve lane (InlineParallelGuard) run
// both chunks inline. The nn kernels never reach the pool; they run on the
// thread that calls them (nn/kernels.hpp).
//
// The pool size is controlled by the DEEPGATE_THREADS environment variable
// (default: hardware concurrency). A single-thread pool never spawns workers
// and runs every chunk inline on the caller, reproducing the pre-pool serial
// code paths bit-exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace dg::util {

/// Cumulative per-lane execution counters (lane 0 = the submitting caller,
/// lanes 1..N-1 = spawned workers). Updated with relaxed atomics — cheap
/// enough to stay on unconditionally; obs::snapshot() derives per-lane
/// utilization as busy_ns over the pool lifetime.
struct PoolLaneStats {
  std::uint64_t chunks = 0;   ///< chunks executed by this lane
  std::uint64_t steals = 0;   ///< chunks executed beyond the lane's fair share
  std::uint64_t busy_ns = 0;  ///< time spent draining chunk queues, less reported waits
  std::uint64_t idle_ns = 0;  ///< workers parked waiting for a job, plus reported waits
};

class ThreadPool {
 public:
  /// A pool of `num_threads` execution lanes: the caller plus
  /// `num_threads - 1` worker threads. `num_threads < 1` is clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// True when a run_chunks call from this thread would run every chunk
  /// inline on it: a one-lane pool, or a thread already inside a pool
  /// chunk or an InlineParallelGuard.
  bool runs_inline() const;

  /// Run fn(chunk) for chunk in [0, num_chunks) across the pool and block
  /// until every chunk finished. Chunks are claimed dynamically; the caller
  /// participates. The first exception thrown by any chunk is rethrown here
  /// (after all chunks completed or were abandoned).
  void run_chunks(int num_chunks, const std::function<void(int)>& fn);

  /// Frozen copy of every lane's counters, lane 0 first.
  std::vector<PoolLaneStats> lane_stats() const;

  /// Wall-clock seconds since the pool was constructed (the denominator for
  /// lane utilization).
  double seconds_alive() const;

 private:
  struct Impl;
  struct Stats;
  Impl* impl_ = nullptr;
  Stats* stats_ = nullptr;
  int num_threads_ = 1;
};

/// RAII: mark the current thread as already inside a parallel region, so any
/// nested run_chunks it issues executes inline on this thread instead of
/// re-entering the pool (external run_chunks callers serialize on a submit
/// lock). Pool workers get this behavior automatically; the guard extends it
/// to threads the pool doesn't know, such as a caller that already runs one
/// task per pool lane itself.
class InlineParallelGuard {
 public:
  InlineParallelGuard();
  ~InlineParallelGuard();
  InlineParallelGuard(const InlineParallelGuard&) = delete;
  InlineParallelGuard& operator=(const InlineParallelGuard&) = delete;

 private:
  bool prev_;
};

/// Largest accepted DEEPGATE_THREADS value.
constexpr int kMaxThreads = 512;

/// Resolved DEEPGATE_THREADS: the env value if set and in [1, kMaxThreads],
/// else std::thread::hardware_concurrency(). An out-of-range value warns
/// and keeps that default.
int default_num_threads();

/// Process-wide pool, lazily created with default_num_threads() lanes.
ThreadPool& global_pool();

/// Replace the global pool with one of `num_threads` lanes (test/bench knob;
/// not safe while another thread is inside the pool).
void set_global_threads(int num_threads);

/// The global pool if some caller already created it, else nullptr. Never
/// creates the pool — observers (obs::snapshot) must not change which code
/// paths have run.
ThreadPool* global_pool_if_created();

/// Book `ns` of the chunk running on this thread as a wait, not work: the
/// lane that drains it counts that time as idle instead of busy. For chunks
/// that spin until another lane catches up (the sweep helper's ring waits
/// in gnn/model_common.cpp). A wait reported outside a chunk the pool
/// drains is dropped, as inline chunks are not timed either.
void report_chunk_wait(std::uint64_t ns);

/// Fixed chunk boundary: start of chunk c when [0, n) is split into C chunks.
inline std::int64_t chunk_begin(std::int64_t n, int num_chunks, int c) {
  return n * c / num_chunks;
}

/// Split [0, n) into exactly `num_chunks` fixed chunks (empty when
/// n < num_chunks) and run body(chunk, lo, hi) for each on the given pool.
/// Reduction over chunks in index order is scheduling-independent.
void parallel_for_chunked(ThreadPool& pool, std::int64_t n, int num_chunks,
                          const std::function<void(int, std::int64_t, std::int64_t)>& body);

}  // namespace dg::util
