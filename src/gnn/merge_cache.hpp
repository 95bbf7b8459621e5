// Signature-keyed cache of merged super-graphs.
//
// Serving the same batch composition repeatedly re-pays CircuitGraph::merge
// + finalize (per-level edge batches, skip batches, positional encodings) on
// every request — for steady traffic over a fixed catalog of circuits that
// is pure rework. The cache keys one merged super-graph by the ordered
// identities of its members (pointer + node/level counts folded through
// FNV-1a) and holds the results in a bounded LRU. Values are shared_ptr so
// an entry evicted mid-forward stays alive until the lane using it is done.
//
// The key folds each member's pointer AND its full structural content
// (types, levels, edges, skip edges), so a freed-and-reallocated different
// graph at the same address cannot hit a stale entry short of a genuine
// 64-bit hash collision. The O(N+E) hashing per lookup is noise next to the
// model forward a hit feeds — the expensive thing being avoided is
// finalize(), which builds per-level batches and positional encodings.
//
// Thread-safe: lookups and inserts from concurrent worker lanes serialize on
// an internal mutex; the merge itself runs outside the lock, so two lanes
// may race to build the same entry (both results are identical; last insert
// wins, one is wasted work — acceptable and rare).
//
// Each lookup is counted once, into the cache's obs::Scope: stats() reads
// it, and obs::snapshot() sums it into gnn.merge_cache.hits / .misses.
//
// Lives in the gnn layer next to the executor (gnn/executor.hpp), whose
// Batch::merge step takes an optional cache: the serve::Server lanes and
// Engine::evaluate re-running a fixed test set both merge through one.
#pragma once

#include "gnn/circuit_graph.hpp"
#include "obs/metrics.hpp"
#include "util/lru.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dg::gnn {

struct MergeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< lookups that had to merge (or found cache off)
  std::size_t entries = 0;     ///< current resident merged graphs
};

class MergeCache {
 public:
  /// `capacity` merged super-graphs are kept; 0 disables caching (every
  /// lookup merges fresh).
  explicit MergeCache(std::size_t capacity);

  /// Ordered FNV-1a signature of a batch composition.
  static std::uint64_t signature(const std::vector<const CircuitGraph*>& parts);

  /// The merged super-graph for `parts`: cached when the same composition
  /// was served before, freshly merged (and inserted) otherwise. `was_hit`
  /// (optional) reports the outcome so callers (serve trace spans) can label
  /// it without re-querying stats.
  std::shared_ptr<const CircuitGraph> merged(const std::vector<const CircuitGraph*>& parts,
                                             bool* was_hit = nullptr);

  /// Drop every resident super-graph (counters keep accumulating). Entries
  /// handed out earlier stay alive through their shared_ptrs. For long-lived
  /// owners (Engine::evaluate) whose working set has moved on.
  void clear();

  MergeCacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  obs::Scope scope_;
  obs::Counter& hits_ = scope_.counter("gnn.merge_cache.hits");
  obs::Counter& misses_ = scope_.counter("gnn.merge_cache.misses");
  mutable util::Mutex mu_;
  // The LruCache itself is lock-free-of (documented in util/lru.hpp: callers
  // hold their own lock) — GUARDED_BY makes that contract compiler-checked.
  util::LruCache<std::uint64_t, std::shared_ptr<const CircuitGraph>> cache_
      DG_GUARDED_BY(mu_);
};

}  // namespace dg::gnn
