#include "obs/metrics.hpp"

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

namespace dg::obs {

namespace {

// -1 = not yet resolved from the environment. The resolve race is benign:
// every thread computes the same value.
std::atomic<int> g_metrics_enabled{-1};

int resolve_metrics_env() {
  const std::string v = util::env_str("DEEPGATE_METRICS", "on");
  if (v == "on" || v == "1") return 1;
  if (v == "off" || v == "0") return 0;
  util::log_warn("DEEPGATE_METRICS=\"", v, "\" is not on|off; using on");
  return 1;
}

}  // namespace

bool metrics_enabled() {
  int v = g_metrics_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = resolve_metrics_env();
    g_metrics_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void metrics_set_enabled(bool on) {
  g_metrics_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

HistogramOptions latency_buckets() {
  HistogramOptions opts;
  opts.min = 1e-6;
  opts.max = 1e3;
  opts.buckets_per_decade = 5;
  opts.tick = 1e-9;
  return opts;
}

HistogramOptions size_buckets() {
  HistogramOptions opts;
  opts.min = 1.0;
  opts.max = 1e9;
  opts.buckets_per_decade = 5;
  opts.tick = 1.0;
  return opts;
}

// -- Histogram ----------------------------------------------------------------

namespace {

std::vector<double> make_bounds(const HistogramOptions& opts) {
  const double lo = opts.min > 0.0 ? opts.min : 1e-9;
  const double hi = std::max(opts.max, lo * 10.0);
  const int bpd = std::max(1, opts.buckets_per_decade);
  std::vector<double> bounds;
  for (int i = 0;; ++i) {
    const double b = lo * std::pow(10.0, static_cast<double>(i) / bpd);
    if (!bounds.empty() && b <= bounds.back()) continue;  // pow plateau guard
    bounds.push_back(b);
    if (b >= hi) break;
  }
  return bounds;
}

}  // namespace

Histogram::Histogram(const HistogramOptions& opts)
    : opts_(opts),
      bounds_(make_bounds(opts)),
      cells_(bounds_.size() + 1),
      tick_(opts.tick > 0.0 ? opts.tick : 1e-9) {}

void Histogram::record(double v) {
  if (!metrics_enabled()) return;
  // upper_bound: first bound > v, so a value exactly on a bound lands in the
  // bucket whose lower bound it is — exact and scheduling-independent.
  const std::size_t idx = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  cells_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double ticks = v > 0.0 ? v / tick_ : 0.0;
  sum_ticks_.fetch_add(static_cast<std::uint64_t>(std::llround(ticks)),
                       std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i)
    snap.counts[i] = cells_[i].load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_ticks = sum_ticks_.load(std::memory_order_relaxed);
  snap.tick = tick_;
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0.0;
  const double clamped = std::min(1.0, std::max(0.0, q));
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  rank = std::min<std::uint64_t>(std::max<std::uint64_t>(rank, 1), count);
  std::uint64_t cum = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    cum += counts[j];
    if (cum >= rank) return bounds[std::min(j, bounds.size() - 1)];
  }
  return bounds.back();  // unreachable when cells sum to count
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.counts.size() != counts.size() || other.tick != tick) return;
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  count += other.count;
  sum_ticks += other.sum_ticks;
}

// -- Registry -----------------------------------------------------------------

struct Registry::Impl {
  mutable util::Mutex mu;
  // The maps are guarded; the Counter/Histogram objects they own are
  // internally atomic and may be used lock-free once handed out (the
  // registry never erases them, so references stay stable for the process).
  std::map<std::string, std::unique_ptr<Counter>> counters DG_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>> histograms DG_GUARDED_BY(mu);
  struct Callback {
    std::function<double()> fn;
    std::uint64_t token = 0;
  };
  std::map<std::string, Callback> callbacks DG_GUARDED_BY(mu);
  std::uint64_t next_token DG_GUARDED_BY(mu) = 1;

  // Per-owner metrics of every live Scope, keyed by the scope's address.
  struct ScopeMetrics {
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };
  std::map<const Scope*, ScopeMetrics> scopes DG_GUARDED_BY(mu);
  // What destroyed scopes recorded, by name.
  std::map<std::string, std::uint64_t> retained_counts DG_GUARDED_BY(mu);
  std::map<std::string, HistogramSnapshot> retained_hists DG_GUARDED_BY(mu);
};

Registry::Impl& Registry::impl() const {
  static Impl instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  util::MutexLock lock(im.mu);
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, const HistogramOptions& opts) {
  Impl& im = impl();
  util::MutexLock lock(im.mu);
  auto& slot = im.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(opts);
  return *slot;
}

std::uint64_t Registry::set_callback(const std::string& name, std::function<double()> fn) {
  Impl& im = impl();
  util::MutexLock lock(im.mu);
  Impl::Callback& cb = im.callbacks[name];
  cb.fn = std::move(fn);
  cb.token = im.next_token++;
  return cb.token;
}

void Registry::remove_callback(const std::string& name, std::uint64_t token) {
  Impl& im = impl();
  util::MutexLock lock(im.mu);
  auto it = im.callbacks.find(name);
  if (it != im.callbacks.end() && it->second.token == token) im.callbacks.erase(it);
}

void Registry::visit(
    const std::function<void(const std::string&, std::uint64_t)>& on_counter,
    const std::function<void(const std::string&, double)>& on_gauge,
    const std::function<void(const std::string&, const HistogramSnapshot&)>& on_histogram)
    const {
  Impl& im = impl();
  util::MutexLock lock(im.mu);
  // Every scope name is registered too (Scope::counter/histogram), so
  // walking the registered names covers retained and live scope values.
  for (const auto& [name, c] : im.counters) {
    std::uint64_t total = c->value();
    if (const auto it = im.retained_counts.find(name); it != im.retained_counts.end())
      total += it->second;
    for (const auto& [scope, m] : im.scopes)
      if (const auto it = m.counters.find(name); it != m.counters.end())
        total += it->second->value();
    on_counter(name, total);
  }
  // Callbacks must not call back into the registry (the lock is held); they
  // read their owner's atomics. A throwing callback yields no sample — a
  // snapshot must never take down the process it observes.
  for (const auto& [name, cb] : im.callbacks) {
    if (!cb.fn) continue;
    try {
      on_gauge(name, cb.fn());
    } catch (...) {
      // Swallowed by design (see comment above): observation must not throw.
    }
  }
  for (const auto& [name, h] : im.histograms) {
    HistogramSnapshot total = h->snapshot();
    if (const auto it = im.retained_hists.find(name); it != im.retained_hists.end())
      total.merge(it->second);
    for (const auto& [scope, m] : im.scopes)
      if (const auto it = m.histograms.find(name); it != m.histograms.end())
        total.merge(it->second->snapshot());
    on_histogram(name, total);
  }
}

Registry& registry() {
  static Registry instance;
  return instance;
}

// -- Scope --------------------------------------------------------------------

Scope::~Scope() {
  Registry::Impl& im = registry().impl();
  util::MutexLock lock(im.mu);
  const auto it = im.scopes.find(this);
  if (it == im.scopes.end()) return;
  for (const auto& [name, c] : it->second.counters) im.retained_counts[name] += c->value();
  for (const auto& [name, h] : it->second.histograms) {
    const auto [slot, fresh] = im.retained_hists.try_emplace(name, h->snapshot());
    if (!fresh) slot->second.merge(h->snapshot());
  }
  im.scopes.erase(it);
}

Counter& Scope::counter(const std::string& name) {
  Registry& reg = registry();
  reg.counter(name);  // the key outlives the scope
  Registry::Impl& im = reg.impl();
  util::MutexLock lock(im.mu);
  auto& slot = im.scopes[this].counters[name];
  if (!slot) slot = std::make_unique<Counter>(/*always_on=*/true);
  return *slot;
}

Histogram& Scope::histogram(const std::string& name, const HistogramOptions& opts) {
  Registry& reg = registry();
  const HistogramOptions layout = reg.histogram(name, opts).options();
  Registry::Impl& im = reg.impl();
  util::MutexLock lock(im.mu);
  auto& slot = im.scopes[this].histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(layout);
  return *slot;
}

Counter& counter(const std::string& name) { return registry().counter(name); }
Histogram& histogram(const std::string& name, const HistogramOptions& opts) {
  return registry().histogram(name, opts);
}

}  // namespace dg::obs
