#include "obs/obs.hpp"

#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace dg::obs {

namespace {

/// Pre-register the metric names every deployment cares about so a snapshot
/// taken before the first request still reports them (as zeros) — consumers
/// (bench_compare, dashboards) get a stable key set.
void ensure_well_known_metrics() {
  static const bool once = [] {
    counter("serve.requests.submitted");
    counter("serve.requests.served");
    counter("serve.requests.cancelled");
    counter("serve.requests.failed");
    counter("serve.windows.closed");
    histogram("serve.latency_seconds", latency_buckets());
    histogram("serve.queue_seconds", latency_buckets());
    histogram("serve.queue_depth", size_buckets());
    histogram("serve.batch_nodes", size_buckets());
    counter("gnn.memo.hits");
    counter("gnn.memo.misses");
    counter("data.shard_cache.hits");
    counter("data.shard_cache.misses");
    counter("data.shard_stream.disk_loads");
    counter("data.shard_io.read_bytes");
    counter("data.shard_io.write_bytes");
    return true;
  }();
  (void)once;
}

/// Poll the global pool without creating it. Lane 0 is the submitting
/// caller; utilization is busy time over pool lifetime.
void append_pool_gauges(std::vector<std::pair<std::string, double>>& gauges,
                        std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  util::ThreadPool* pool = util::global_pool_if_created();
  if (pool == nullptr) return;
  const std::vector<util::PoolLaneStats> lanes = pool->lane_stats();
  const double alive = pool->seconds_alive();
  gauges.emplace_back("util.pool.lanes", static_cast<double>(lanes.size()));
  std::uint64_t chunks = 0;
  std::uint64_t steals = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    chunks += lanes[i].chunks;
    steals += lanes[i].steals;
    busy_ns += lanes[i].busy_ns;
    idle_ns += lanes[i].idle_ns;
    const double util_frac =
        alive > 0.0 ? static_cast<double>(lanes[i].busy_ns) * 1e-9 / alive : 0.0;
    char name[64];
    std::snprintf(name, sizeof(name), "util.pool.lane%zu.utilization", i);
    gauges.emplace_back(name, std::min(1.0, util_frac));
  }
  const double mean_util =
      lanes.empty() || alive <= 0.0
          ? 0.0
          : static_cast<double>(busy_ns) * 1e-9 / (alive * static_cast<double>(lanes.size()));
  gauges.emplace_back("util.pool.utilization", std::min(1.0, mean_util));
  counters.emplace_back("util.pool.chunks", chunks);
  counters.emplace_back("util.pool.steals", steals);
  counters.emplace_back("util.pool.busy_ns", busy_ns);
  counters.emplace_back("util.pool.idle_ns", idle_ns);
}

/// For every "<prefix>.hits"/"<prefix>.misses" counter pair, derive
/// "<prefix>.hit_rate" in [0, 1] (0 when no lookups happened yet).
void append_hit_rates(const std::vector<std::pair<std::string, std::uint64_t>>& counters,
                      std::vector<std::pair<std::string, double>>& gauges) {
  for (const auto& [name, hits] : counters) {
    const std::string suffix = ".hits";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const std::string prefix = name.substr(0, name.size() - suffix.size());
    const auto miss_it = std::find_if(
        counters.begin(), counters.end(),
        [&](const auto& kv) { return kv.first == prefix + ".misses"; });
    if (miss_it == counters.end()) continue;
    const std::uint64_t total = hits + miss_it->second;
    gauges.emplace_back(prefix + ".hit_rate",
                        total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total));
  }
}

/// Shortest-round-trip double rendering that is always valid JSON (never
/// "nan"/"inf" — those degrade to 0).
std::string json_double(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Ensure the token parses as a JSON number (snprintf %g never emits one
  // that doesn't, for finite v).
  return buf;
}

}  // namespace

std::uint64_t Snapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

double Snapshot::gauge_value(const std::string& name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0.0;
}

const HistogramSnapshot* Snapshot::find_histogram(const std::string& name) const {
  for (const auto& e : histograms)
    if (e.name == name) return &e.hist;
  return nullptr;
}

Snapshot snapshot() {
  ensure_well_known_metrics();
  Snapshot snap;
  registry().visit(
      [&](const std::string& name, std::uint64_t v) { snap.counters.emplace_back(name, v); },
      [&](const std::string& name, double v) { snap.gauges.emplace_back(name, v); },
      [&](const std::string& name, const HistogramSnapshot& h) {
        snap.histograms.push_back({name, h});
      });
  append_pool_gauges(snap.gauges, snap.counters);
  append_hit_rates(snap.counters, snap.gauges);
  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const Snapshot::HistogramEntry& a, const Snapshot::HistogramEntry& b) {
              return a.name < b.name;
            });
  return snap;
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << v;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << json_double(v);
    first = false;
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& e : histograms) {
    os << (first ? "" : ", ") << "\"" << e.name << "\": {\"count\": " << e.hist.count
       << ", \"sum\": " << json_double(e.hist.sum())
       << ", \"mean\": " << json_double(e.hist.mean())
       << ", \"p50\": " << json_double(e.hist.quantile(0.50))
       << ", \"p95\": " << json_double(e.hist.quantile(0.95))
       << ", \"p99\": " << json_double(e.hist.quantile(0.99)) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace dg::obs
