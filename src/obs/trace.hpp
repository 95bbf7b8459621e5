// Request-scoped tracing with a ring-buffered span sink and a Chrome
// trace-event JSON exporter.
//
// The serving loop (and anything else) records named spans — explicit
// [start, end) intervals via trace_record(), scoped intervals via the
// TraceSpan RAII guard, and zero-duration markers via trace_instant(). Each
// event carries two optional correlation ids: `id` (the entity the span
// belongs to — a request, a batch) and `ref` (a link to another entity —
// e.g. a request span referencing the batch it was served in), which is how
// a trace context threads from serve::Server::submit through admission,
// window close, merge, forward, and fulfillment without any allocation on
// the hot path.
//
// Events land in a bounded ring (capacity DEEPGATE_TRACE_BUF, default 65536)
// that overwrites the oldest entries — steady-state tracing of a long run
// keeps the most recent window instead of growing without bound. dump_trace
// writes the ring as Chrome trace-event JSON ({"traceEvents": [...]}),
// loadable in chrome://tracing or https://ui.perfetto.dev.
//
// `name`, `cat`, and `detail` must be string literals (or otherwise outlive
// the sink): events store the pointers, never copies — recording stays
// allocation-free.
//
// Tracing is off by default (DEEPGATE_TRACE=on|off, strict parse, or
// trace_set_enabled()); when off, a TraceSpan construction is a single
// relaxed atomic load and nothing is recorded. Like the metrics registry,
// tracing is bitwise-neutral on every computed output.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dg::obs {

using TraceClock = std::chrono::steady_clock;

/// Master switch (DEEPGATE_TRACE, default off; strict parse).
bool trace_enabled();
void trace_set_enabled(bool on);

/// Fresh nonzero correlation id (process-wide, monotonically increasing).
std::uint64_t next_trace_id();

struct TraceEvent {
  const char* name = nullptr;    ///< literal
  const char* cat = nullptr;     ///< literal
  const char* detail = nullptr;  ///< optional literal, rendered as args.detail
  std::int64_t start_ns = 0;     ///< relative to the process trace origin
  std::int64_t dur_ns = -1;      ///< -1 = instant event
  std::uint32_t tid = 0;         ///< stable small id of the recording thread
  std::uint64_t id = 0;          ///< 0 = absent
  std::uint64_t ref = 0;         ///< 0 = absent
};

/// Record an explicit [start, end) span. No-op while tracing is off.
void trace_record(const char* name, const char* cat, TraceClock::time_point start,
                  TraceClock::time_point end, std::uint64_t id = 0, std::uint64_t ref = 0,
                  const char* detail = nullptr);

/// Record a zero-duration marker at now().
void trace_instant(const char* name, const char* cat, std::uint64_t id = 0,
                   std::uint64_t ref = 0, const char* detail = nullptr);

/// RAII span: starts timing at construction, records at destruction (only
/// when tracing was enabled at construction time).
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, std::uint64_t id = 0, std::uint64_t ref = 0);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t id_;
  std::uint64_t ref_;
  TraceClock::time_point start_;
  bool armed_;
};

struct TraceSinkStats {
  std::uint64_t recorded = 0;  ///< events ever pushed
  std::uint64_t dropped = 0;   ///< oldest events overwritten by the ring
  std::size_t capacity = 0;
  std::size_t size = 0;        ///< events currently resident
};

TraceSinkStats trace_sink_stats();

/// Resident events, oldest first.
std::vector<TraceEvent> trace_events();

/// Drop every resident event (counters keep accumulating).
void trace_clear();

/// Write the resident events as Chrome trace-event JSON. Returns false on
/// I/O failure.
bool dump_trace(std::ostream& os);
bool dump_trace(const std::string& path);

}  // namespace dg::obs
