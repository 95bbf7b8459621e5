// No-grad forward arena: a per-thread reusable buffer pool for the small
// Matrix buffers and tape nodes of a forward.
//
// A level-by-level forward allocates the same small shapes at every level
// step (aggregator scratch, gathered sources, messages) — one fresh heap
// allocation per op per level, once measured as the main gap between raw
// kernel speedup (3.2-3.9x) and the end-to-end batched forward (~2.3x).
// Inside an ArenaScope every Matrix buffer (and TapeNode) below
// kArenaLargeBytes is acquired from the current thread's arena:
// power-of-two byte buckets of freelists, so after one warm-up forward the
// steady state recycles buffers instead of hitting the allocator.
//
// Retention rule: an arena keeps every buffer it ever handed out, for the
// life of the process, so its capacity is the most small buffers one of
// its forwards held at once, rounded up to powers of two. That is bounded
// only while a forward holds O(1) of them at a time: the no-grad forward
// keeps its level states in one slab per forward (gnn/model_common.cpp)
// and frees each level step's scratch before the next. Buffers of
// kArenaLargeBytes and up (state slabs, embeddings, the regressor's
// per-type gathers of a large graph) are plain heap allocations even inside
// a scope: they are few per forward, so the allocator's cost is noise
// beside the forward, and a lane that once ran a large design would
// otherwise hold its largest buffers in a bucket up to twice their size
// for every later request.
//
// Ownership is carried by a 16-byte header in front of every payload
// (owning arena + bucket, or none for a plain heap buffer), so release
// routes correctly from any thread and any scope — buffers that escape the
// guard (moved-out results) stay valid and simply return to their owning
// arena's freelist when destroyed. Thread arenas are never destroyed; when
// a thread exits its arena is parked in a global pool and handed to the
// next thread that opens a scope, so no outstanding buffer can ever dangle.
//
// Numerics are untouched by design: the arena changes where bytes live,
// never what is computed — scalar-backend results with the arena on are
// bitwise-identical to arena-off (asserted in tests and in micro_serving).
//
// Knobs: DEEPGATE_ARENA=on|off (default on; read once at startup) or
// arena_set_enabled() for tests/benches.
#pragma once

#include <cstddef>

namespace dg::nn {

class Arena;  // opaque; defined in arena.cpp

/// Requests of at least this many bytes bypass the arena: plain heap inside
/// a scope too, never counted in ArenaStats.
inline constexpr std::size_t kArenaLargeBytes = std::size_t{256} * 1024;

/// Process-wide counters, aggregated over every arena (relaxed atomics).
/// `heap_allocs` counts arena-scope acquisitions below kArenaLargeBytes
/// that missed the freelist and grew an arena from the heap, and
/// `heap_bytes` is the capacity they added: both stay flat once every lane
/// has run each shape of its traffic (serve_test and arena_memory_test
/// assert it). Allocations outside any scope and large buffers are plain
/// heap and deliberately not counted.
struct ArenaStats {
  std::size_t heap_allocs = 0;  // arena-scope freelist misses (heap hits)
  std::size_t heap_bytes = 0;   // bucket capacity of those allocations
  std::size_t reuses = 0;       // acquisitions served from a freelist
};

ArenaStats arena_stats();

/// Master switch (DEEPGATE_ARENA, default on). When off, ArenaScope is a
/// no-op and every buffer is a plain heap allocation — the PR 6 behavior.
bool arena_enabled();
void arena_set_enabled(bool on);

/// RAII: activates the current thread's arena for the scope. Nestable; the
/// inner scope keeps using the same thread arena. Copy results you want to
/// hand to callers after the scope closes (the copy then owns plain heap
/// memory); results copied inside remain valid either way.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
};

namespace detail {

/// Raw buffer of at least `bytes`, 16-byte aligned, preceded by an
/// ownership header. From the active arena's freelists when a scope is
/// open and bytes < kArenaLargeBytes, otherwise plain heap. bytes == 0
/// returns nullptr.
void* arena_acquire(std::size_t bytes);

/// Release a buffer from arena_acquire (routes by header; any thread).
void arena_release(void* payload);

inline float* arena_acquire_floats(std::size_t n) {
  return static_cast<float*>(arena_acquire(n * sizeof(float)));
}

/// True when the calling thread has an active ArenaScope.
bool arena_active();

}  // namespace detail
}  // namespace dg::nn
