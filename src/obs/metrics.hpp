// Process-wide metrics registry: named atomic counters, pull-style gauges
// (callbacks evaluated at snapshot time), and fixed-bucket log-spaced
// histograms — the measurement substrate shared by
// every subsystem (serve lanes, merge/shard caches, arena, incremental memo,
// thread pool) — plus per-owner scopes.
//
// Design constraints, in order:
//  - Hot-path cheap: a Counter::add is one relaxed atomic fetch_add behind a
//    relaxed enabled-flag load; a Histogram::record is a short binary search
//    over precomputed bucket bounds plus three relaxed atomic adds. Call
//    sites cache the reference once (function-local static) and never pay
//    the registry lookup again.
//  - Deterministic reductions: every histogram cell — bucket counts, total
//    count, and the value sum (stored in integer ticks, not floats) — is an
//    unsigned integer, so merging per-thread shards is exactly associative
//    and commutative: a fixed-order reduction is bit-identical at any
//    DEEPGATE_THREADS, and quantiles derived from the merged buckets are
//    deterministic.
//  - One accounting path: an object with per-instance accessors records
//    each event once, into its own Scope (below), and the accessor reads it.
//  - Bitwise-neutral: metrics only observe; nothing here feeds back into any
//    computation. Inference outputs are bitwise identical with
//    DEEPGATE_METRICS=on or off (asserted in tests/obs_test.cpp).
//
// Registered metrics live for the process lifetime; references returned by
// counter()/histogram() are stable forever. Names are dotted paths
// ("serve.latency_seconds", "data.shard_stream.disk_loads"); the snapshot in
// obs/obs.hpp derives "<prefix>.hit_rate" gauges for any hits/misses pair.
//
// Knob: DEEPGATE_METRICS=on|off (default on; strict parse — unknown values
// warn and keep the default), or metrics_set_enabled() for tests/benches.
// Off drops every registry counter add and every histogram record,
// scope histograms included. Scope counters keep counting, because the
// per-instance accessors report them: with metrics off the snapshot's
// scope-backed counters (serve.requests.*, serve.windows.closed,
// data.shard_stream.disk_loads) still advance instead of staying frozen.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dg::obs {

/// Master recording switch (DEEPGATE_METRICS, default on). When off every
/// add/record is a dropped branch; registration and snapshots still work.
bool metrics_enabled();
void metrics_set_enabled(bool on);

/// Monotonic counter. add() is relaxed: per-event ordering does not matter,
/// totals do.
class Counter {
 public:
  Counter() = default;
  /// `always_on` counters count even with recording off (scope counters and
  /// other per-instance counts).
  explicit Counter(bool always_on) : always_on_(always_on) {}

  void add(std::uint64_t n = 1) {
    if (always_on_ || metrics_enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
  bool always_on_ = false;
};

/// Log-spaced bucket layout: `buckets_per_decade` bounds per power of ten
/// from `min` up to (at least) `max`, plus an underflow bucket below `min`
/// and an overflow bucket at/above the last bound. The value sum is kept in
/// integer `tick` units (llround(v / tick)) so shard merges stay exact.
struct HistogramOptions {
  double min = 1e-6;
  double max = 1e3;
  int buckets_per_decade = 5;
  double tick = 1e-9;
};

/// Seconds-valued latencies: 1 µs .. 1000 s, 5 buckets/decade, ns-resolution
/// sum — p50/p95/p99 resolve to ~58% relative bucket width.
HistogramOptions latency_buckets();

/// Dimensionless sizes/depths (nodes, queue depth, bytes): 1 .. 1e9,
/// unit-resolution sum.
HistogramOptions size_buckets();

/// Frozen copy of a histogram's cells. All-integer, so merge() is exactly
/// associative: reducing per-thread shards in fixed index order is
/// bit-identical no matter how samples were partitioned.
struct HistogramSnapshot {
  std::vector<double> bounds;         ///< ascending bucket bounds (see Histogram)
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 cells (under/overflow)
  std::uint64_t count = 0;
  std::uint64_t sum_ticks = 0;
  double tick = 1e-9;

  double sum() const { return static_cast<double>(sum_ticks) * tick; }
  double mean() const { return count == 0 ? 0.0 : sum() / static_cast<double>(count); }

  /// Upper bound of the bucket holding the q-quantile sample (deterministic:
  /// derived from integer cumulative counts). Empty histogram -> 0. The
  /// underflow bucket reports bounds.front(), the overflow bucket
  /// bounds.back() (quantiles saturate at the layout edges).
  double quantile(double q) const;

  /// Exact cell-wise accumulation of `other` into this snapshot. Layouts
  /// must match (same bounds/tick); mismatches are a programming error and
  /// are ignored defensively.
  void merge(const HistogramSnapshot& other);
};

/// Fixed-bucket concurrent histogram. Bucket 0 holds v < bounds[0]; bucket
/// j >= 1 holds bounds[j-1] <= v < bounds[j]; the last bucket holds
/// v >= bounds.back() — a value exactly on a bound lands in the bucket whose
/// LOWER bound it is. Thread-safe, wait-free per record.
class Histogram {
 public:
  explicit Histogram(const HistogramOptions& opts = HistogramOptions());

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double v);
  HistogramSnapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }
  const HistogramOptions& options() const { return opts_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  HistogramOptions opts_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> cells_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ticks_{0};
  double tick_;
};

/// Name -> metric map. Registration serializes on a mutex (cold path);
/// returned references are stable for the process lifetime, so call sites
/// hold them in function-local statics and update lock-free. The first
/// registration of a histogram name fixes its bucket layout; later lookups
/// ignore their `opts`.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name, const HistogramOptions& opts = HistogramOptions());

  /// Pull-style gauge, the registry's only kind: `fn` is evaluated at snapshot time (for values owned
  /// by a subsystem the obs layer cannot poll directly, e.g. the arena
  /// counters, or a live server's lane utilization). Returns a token;
  /// remove_callback removes only if the token still matches, so a later
  /// owner of the same name is never torn down by a stale destructor.
  std::uint64_t set_callback(const std::string& name, std::function<double()> fn);
  void remove_callback(const std::string& name, std::uint64_t token);

  /// Visit every metric (and evaluated callback) under the registration
  /// lock, name-sorted. Counter and histogram values are the registered
  /// metric plus the retained total of destroyed scopes plus every live
  /// scope (see Scope). Callback exceptions are swallowed (a snapshot must
  /// never take down the process it observes).
  void visit(const std::function<void(const std::string&, std::uint64_t)>& on_counter,
             const std::function<void(const std::string&, double)>& on_gauge,
             const std::function<void(const std::string&, const HistogramSnapshot&)>&
                 on_histogram) const;

 private:
  friend class Scope;
  struct Impl;
  Impl& impl() const;
};

/// One object's share of the process-wide names (a serve::Server's Stats, a
/// ShardStream's load counts). The owner takes its metrics at construction
/// and answers its accessors from them:
///
///   obs::Scope scope_;  // declared first: it outlives the references
///   obs::Counter& disk_loads_ = scope_.counter("data.shard_stream.disk_loads");
///
/// obs::snapshot() reports each name as the registry's retained total plus
/// every live scope; the destructor folds the scope into that total, exactly
/// (HistogramSnapshot::merge). Scope counters always count; scope histograms
/// obey the switch. Registration takes the registry lock; recording does not.
class Scope {
 public:
  Scope() = default;
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This scope's counter `name` (the same object on repeated calls).
  Counter& counter(const std::string& name);
  /// This scope's histogram `name`, laid out as the registry's histogram of
  /// that name (`opts` if this is the first use).
  Histogram& histogram(const std::string& name, const HistogramOptions& opts = HistogramOptions());
};

/// The process-wide registry.
Registry& registry();

/// Convenience: registry().counter(name) etc.
Counter& counter(const std::string& name);
Histogram& histogram(const std::string& name, const HistogramOptions& opts = HistogramOptions());

}  // namespace dg::obs
