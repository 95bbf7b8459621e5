#include "nn/arena.hpp"

#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#include <atomic>
#include <bit>
#include <cstdint>
#include <new>
#include <vector>

namespace dg::nn {
namespace {

// Smallest bucket 32 bytes (index 5); index b holds capacity 1 << b. The
// largest bucket holds requests just under kArenaLargeBytes; anything at or above
// it is a plain heap allocation (see arena.hpp), so no request can index
// past the last bucket.
constexpr int kMinBucket = 5;
constexpr int kNumBuckets = 19;
static_assert(kArenaLargeBytes == std::size_t{1} << (kNumBuckets - 1),
              "the largest bucket must hold every pooled request");

struct Header {
  Arena* owner;       // nullptr = plain heap allocation
  std::uint64_t bucket;  // freelist index; unused when owner == nullptr
};
static_assert(sizeof(Header) == 16, "payload must stay 16-byte aligned");

std::atomic<std::size_t> g_heap_allocs{0};
std::atomic<std::size_t> g_heap_bytes{0};
std::atomic<std::size_t> g_reuses{0};

bool env_arena_enabled() {
  const std::string v = util::env_str("DEEPGATE_ARENA", "on");
  return !(v == "off" || v == "0" || v == "false");
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_arena_enabled()};
  return flag;
}

int bucket_for(std::size_t bytes) {
  const int b = bytes <= 1 ? 0 : std::bit_width(bytes - 1);
  return b < kMinBucket ? kMinBucket : b;
}

}  // namespace

class Arena {
 public:
  void* try_pop(int bucket) {
    util::MutexLock lock(mu_);
    auto& list = free_[bucket];
    if (list.empty()) return nullptr;
    void* p = list.back();
    list.pop_back();
    return p;
  }

  void push(void* payload, int bucket) {
    util::MutexLock lock(mu_);
    free_[bucket].push_back(payload);
  }

 private:
  // Uncontended in steady state (buffers return on the thread that took
  // them); the mutex covers the cross-thread escape paths.
  util::Mutex mu_;
  std::vector<void*> free_[kNumBuckets] DG_GUARDED_BY(mu_);
};

namespace {

thread_local Arena* g_active = nullptr;

// Arenas are never destroyed — outstanding buffers hold raw owner pointers.
// When a thread exits, its arena parks here for the next thread that opens
// a scope, bounding live arenas by the peak thread count.
util::Mutex g_park_mu;
std::vector<Arena*>& parked_arenas() DG_REQUIRES(g_park_mu) {
  // Intentionally leaked: if this vector were a plain static, its exit-time
  // destructor would free the backing store and orphan the (by design
  // immortal) parked arenas, which LeakSanitizer then reports. Keeping the
  // registry alive keeps every arena reachable forever.
  static auto* parked = new std::vector<Arena*>();
  return *parked;
}

Arena* checkout_arena() {
  util::MutexLock lock(g_park_mu);
  auto& parked = parked_arenas();
  if (!parked.empty()) {
    Arena* a = parked.back();
    parked.pop_back();
    return a;
  }
  return new Arena();
}

struct ThreadArenaHolder {
  Arena* arena = nullptr;
  ~ThreadArenaHolder() {
    if (arena == nullptr) return;
    util::MutexLock lock(g_park_mu);
    parked_arenas().push_back(arena);
  }
};

Arena* thread_arena() {
  thread_local ThreadArenaHolder holder;
  if (holder.arena == nullptr) holder.arena = checkout_arena();
  return holder.arena;
}

}  // namespace

ArenaStats arena_stats() {
  ArenaStats s;
  s.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  s.heap_bytes = g_heap_bytes.load(std::memory_order_relaxed);
  s.reuses = g_reuses.load(std::memory_order_relaxed);
  return s;
}

bool arena_enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void arena_set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

namespace {

/// Publish the arena counters as pull-style gauges the first time a scope
/// opens. The callbacks read process-lifetime atomics (no owner to dangle),
/// so they are registered once and never removed.
void register_arena_gauges() {
  static const bool once = [] {
    obs::registry().set_callback("nn.arena.heap_allocs", [] {
      return static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed));
    });
    obs::registry().set_callback("nn.arena.heap_bytes", [] {
      return static_cast<double>(g_heap_bytes.load(std::memory_order_relaxed));
    });
    obs::registry().set_callback("nn.arena.reuses", [] {
      return static_cast<double>(g_reuses.load(std::memory_order_relaxed));
    });
    return true;
  }();
  (void)once;
}

}  // namespace

ArenaScope::ArenaScope() : prev_(g_active) {
  if (arena_enabled()) {
    register_arena_gauges();
    g_active = thread_arena();
  }
}

ArenaScope::~ArenaScope() { g_active = prev_; }

namespace detail {

void* arena_acquire(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  Arena* a = g_active;
  if (a != nullptr && bytes < kArenaLargeBytes) {
    const int bucket = bucket_for(bytes);
    if (void* p = a->try_pop(bucket)) {
      g_reuses.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
    const std::size_t capacity = std::size_t{1} << bucket;
    void* raw = ::operator new(sizeof(Header) + capacity);
    new (raw) Header{a, static_cast<std::uint64_t>(bucket)};
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    g_heap_bytes.fetch_add(capacity, std::memory_order_relaxed);
    return static_cast<char*>(raw) + sizeof(Header);
  }
  void* raw = ::operator new(sizeof(Header) + bytes);
  new (raw) Header{nullptr, 0};
  return static_cast<char*>(raw) + sizeof(Header);
}

void arena_release(void* payload) {
  if (payload == nullptr) return;
  void* raw = static_cast<char*>(payload) - sizeof(Header);
  Header* h = static_cast<Header*>(raw);
  if (h->owner != nullptr) {
    h->owner->push(payload, static_cast<int>(h->bucket));
  } else {
    ::operator delete(raw);
  }
}

bool arena_active() { return g_active != nullptr; }

}  // namespace detail
}  // namespace dg::nn
