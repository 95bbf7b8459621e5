// Unified observability facade: one call that freezes every registered
// metric — counters, gauges (including pull-style callbacks and thread-pool
// lane utilization), histograms — into a Snapshot renderable as JSON. A counter or histogram reports its registered value plus what
// every live and destroyed obs::Scope recorded under the same name.
//
// snapshot() also derives convenience gauges: for every counter pair
// "<prefix>.hits"/"<prefix>.misses" it emits "<prefix>.hit_rate" in [0, 1],
// and when the global thread pool exists it emits per-lane utilization plus
// steal/idle counters (util.pool.*). Well-known serve/cache metric names are
// pre-registered so a snapshot always reports them (as zeros) even before
// the first request.
//
// The JSON rendering is embedded by bench/harness.hpp under a "metrics" key
// in every --json bench report, which is what tools/bench_compare.py trends.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dg::obs {

/// Frozen view of the registry, name-sorted within each kind.
struct Snapshot {
  struct HistogramEntry {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramEntry> histograms;

  /// Counter value by exact name; 0 when absent.
  std::uint64_t counter_value(const std::string& name) const;
  /// Gauge value by exact name; 0.0 when absent.
  double gauge_value(const std::string& name) const;
  /// Histogram by exact name; nullptr when absent.
  const HistogramSnapshot* find_histogram(const std::string& name) const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, mean, p50, p95, p99}, ...}}. Keys are sorted, so
  /// the rendering is deterministic for a given metric state.
  std::string to_json() const;
};

/// Freeze the registry. Pre-registers the well-known metric names, polls the
/// global thread pool (if it was ever created — never creates it), and
/// derives <prefix>.hit_rate gauges.
Snapshot snapshot();

}  // namespace dg::obs
