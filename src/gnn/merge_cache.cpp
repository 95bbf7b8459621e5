#include "gnn/merge_cache.hpp"

#include "util/hash.hpp"

namespace dg::gnn {

MergeCache::MergeCache(std::size_t capacity) : capacity_(capacity), cache_(capacity) {}

std::uint64_t MergeCache::signature(const std::vector<const CircuitGraph*>& parts) {
  util::Fnv1a h;
  h.u64(parts.size());
  for (const CircuitGraph* g : parts) {
    h.u64(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(g)));
    // Full structural content (types, levels, edges) folds into the key, so
    // pointer aliasing from a freed-and-reallocated graph at the same
    // address cannot serve a stale merge without a genuine 64-bit hash
    // collision. O(N+E) per member per lookup — noise next to the model
    // forward the hit saves, and far cheaper than the merge it avoids.
    h.i32(g->num_nodes);
    h.i32(g->num_levels);
    h.i32(g->num_types);
    h.i32(g->pe_L);
    for (const int t : g->type_id) h.i32(t);
    for (const int l : g->level) h.i32(l);
    h.u64(g->edges.size());
    for (const auto& [src, dst] : g->edges) {
      h.i32(src);
      h.i32(dst);
    }
    h.u64(g->skip_edges.size());
    for (const auto& e : g->skip_edges) {
      h.i32(e.src);
      h.i32(e.dst);
      h.i32(e.level_diff);
    }
  }
  return h.digest();
}

std::shared_ptr<const CircuitGraph> MergeCache::merged(
    const std::vector<const CircuitGraph*>& parts, bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  if (capacity_ == 0) {
    misses_.add();
    return std::make_shared<const CircuitGraph>(CircuitGraph::merge(parts));
  }
  const std::uint64_t key = signature(parts);
  {
    util::MutexLock lock(mu_);
    if (auto* hit = cache_.get(key)) {
      hits_.add();
      if (was_hit != nullptr) *was_hit = true;
      return *hit;
    }
  }
  misses_.add();
  // Merge outside the lock: finalize() is the expensive part and must not
  // serialize the worker lanes.
  auto built = std::make_shared<const CircuitGraph>(CircuitGraph::merge(parts));
  util::MutexLock lock(mu_);
  cache_.put(key, built);
  return built;
}

void MergeCache::clear() {
  util::MutexLock lock(mu_);
  cache_.clear();
}

MergeCacheStats MergeCache::stats() const {
  MergeCacheStats snapshot;
  snapshot.hits = hits_.value();
  snapshot.misses = misses_.value();
  util::MutexLock lock(mu_);
  snapshot.entries = cache_.size();
  return snapshot;
}

}  // namespace dg::gnn
