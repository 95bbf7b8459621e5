#include "obs/trace.hpp"

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

namespace dg::obs {

namespace {

std::atomic<int> g_trace_enabled{-1};  // -1 = unresolved

int resolve_trace_env() {
  const std::string v = util::env_str("DEEPGATE_TRACE", "off");
  if (v == "on" || v == "1") return 1;
  if (v == "off" || v == "0") return 0;
  util::log_warn("DEEPGATE_TRACE=\"", v, "\" is not on|off; using off");
  return 0;
}

std::atomic<std::uint64_t> g_next_id{1};

/// All timestamps are relative to one process-wide origin so ts never
/// overflows a double's integer range in the exported microseconds.
TraceClock::time_point trace_origin() {
  static const TraceClock::time_point origin = TraceClock::now();
  return origin;
}

std::int64_t since_origin_ns(TraceClock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - trace_origin()).count();
}

/// Stable small per-thread id for the exported tid field (thread::id hashes
/// are neither small nor stable across runs).
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// Mutex-protected ring. Tracing is off on hot paths by default; when it is
/// on, one short critical section per span is far below the cost of the
/// forwards being traced, and it keeps the sink trivially TSan-clean.
struct TraceSink {
  util::Mutex mu;
  std::vector<TraceEvent> ring DG_GUARDED_BY(mu);
  std::size_t capacity;         // set once in the ctor, immutable after
  std::size_t head DG_GUARDED_BY(mu) = 0;       // next write slot once the ring is full
  std::uint64_t recorded DG_GUARDED_BY(mu) = 0;
  std::uint64_t dropped DG_GUARDED_BY(mu) = 0;  // oldest events overwritten (clear() is not a drop)

  TraceSink() {
    long long cap = util::env_int("DEEPGATE_TRACE_BUF", 1 << 16);
    if (cap < 16) cap = 16;
    capacity = static_cast<std::size_t>(cap);
    ring.reserve(std::min<std::size_t>(capacity, 4096));
  }

  void push(const TraceEvent& e) {
    util::MutexLock lock(mu);
    if (ring.size() < capacity) {
      ring.push_back(e);
    } else {
      ring[head] = e;
      head = (head + 1) % capacity;
      ++dropped;
    }
    ++recorded;
  }

  std::vector<TraceEvent> snapshot() {
    util::MutexLock lock(mu);
    std::vector<TraceEvent> out;
    out.reserve(ring.size());
    // Oldest first: [head, end) then [0, head).
    for (std::size_t i = head; i < ring.size(); ++i) out.push_back(ring[i]);
    for (std::size_t i = 0; i < head; ++i) out.push_back(ring[i]);
    return out;
  }

  TraceSinkStats stats() {
    util::MutexLock lock(mu);
    TraceSinkStats s;
    s.recorded = recorded;
    s.dropped = dropped;
    s.capacity = capacity;
    s.size = ring.size();
    return s;
  }

  void clear() {
    util::MutexLock lock(mu);
    ring.clear();
    head = 0;
  }
};

TraceSink& sink() {
  static TraceSink instance;
  return instance;
}

}  // namespace

bool trace_enabled() {
  int v = g_trace_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = resolve_trace_env();
    g_trace_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void trace_set_enabled(bool on) {
  g_trace_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t next_trace_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void trace_record(const char* name, const char* cat, TraceClock::time_point start,
                  TraceClock::time_point end, std::uint64_t id, std::uint64_t ref,
                  const char* detail) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.detail = detail;
  e.start_ns = since_origin_ns(start);
  e.dur_ns = std::max<std::int64_t>(0, since_origin_ns(end) - e.start_ns);
  e.tid = current_tid();
  e.id = id;
  e.ref = ref;
  sink().push(e);
}

void trace_instant(const char* name, const char* cat, std::uint64_t id, std::uint64_t ref,
                   const char* detail) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.detail = detail;
  e.start_ns = since_origin_ns(TraceClock::now());
  e.dur_ns = -1;
  e.tid = current_tid();
  e.id = id;
  e.ref = ref;
  sink().push(e);
}

TraceSpan::TraceSpan(const char* name, const char* cat, std::uint64_t id, std::uint64_t ref)
    : name_(name), cat_(cat), id_(id), ref_(ref), armed_(trace_enabled()) {
  if (armed_) start_ = TraceClock::now();
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  trace_record(name_, cat_, start_, TraceClock::now(), id_, ref_);
}

TraceSinkStats trace_sink_stats() { return sink().stats(); }

std::vector<TraceEvent> trace_events() { return sink().snapshot(); }

void trace_clear() { sink().clear(); }

namespace {

/// Nanoseconds as microseconds with exactly three decimals, formatted from
/// the integer so the text is exact at any uptime (a double with default
/// stream precision rounds to 100 us after ~100 s, un-nesting child spans).
std::string micros(std::int64_t ns) {
  const std::uint64_t mag =
      ns < 0 ? 0 - static_cast<std::uint64_t>(ns) : static_cast<std::uint64_t>(ns);
  char frac[4];
  std::snprintf(frac, sizeof(frac), "%03u", static_cast<unsigned>(mag % 1000));
  std::string out(ns < 0 ? "-" : "");
  return out.append(std::to_string(mag / 1000)).append(".").append(frac);
}

}  // namespace

bool dump_trace(std::ostream& os) {
  const std::vector<TraceEvent> events = trace_events();
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    // name/cat/detail are required to be literals without JSON-special
    // characters (they are compile-time identifiers, not user data).
    os << "\n  {\"name\": \"" << (e.name != nullptr ? e.name : "?")
       << "\", \"cat\": \"" << (e.cat != nullptr ? e.cat : "deepgate") << "\"";
    if (e.dur_ns >= 0) {
      os << ", \"ph\": \"X\", \"ts\": " << micros(e.start_ns)
         << ", \"dur\": " << micros(e.dur_ns);
    } else {
      os << ", \"ph\": \"i\", \"ts\": " << micros(e.start_ns) << ", \"s\": \"t\"";
    }
    os << ", \"pid\": 1, \"tid\": " << e.tid << ", \"args\": {";
    bool first_arg = true;
    const auto arg = [&](const char* key) {
      os << (first_arg ? "" : ", ") << "\"" << key << "\": ";
      first_arg = false;
    };
    if (e.id != 0) {
      arg("id");
      os << e.id;
    }
    if (e.ref != 0) {
      arg("ref");
      os << e.ref;
    }
    if (e.detail != nullptr) {
      arg("detail");
      os << "\"" << e.detail << "\"";
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.good();
}

bool dump_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    util::log_warn("dump_trace: cannot write ", path);
    return false;
  }
  const bool ok = dump_trace(out);
  out.flush();
  return ok && out.good();
}

}  // namespace dg::obs
