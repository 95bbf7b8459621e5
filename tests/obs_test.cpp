// The observability layer: fixed-bucket histograms must place boundary
// values deterministically and merge bit-identically under any sharding;
// the registry must hand out stable references, honor callback tokens, and
// survive concurrent recording (this suite runs under ASan AND TSan in CI);
// the trace ring must overwrite oldest-first and export valid Chrome
// trace-event JSON; and — the contract everything else rests on — inference
// outputs must be bitwise identical with metrics/tracing on or off.
#include "obs/obs.hpp"

#include "core/deepgate.hpp"
#include "data/generators_large.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

namespace dg::obs {
namespace {

// Shrink the trace ring before the lazily-constructed sink ever exists so
// the overwrite test can fill it cheaply. Static init runs before any test
// (and before the sink's first use anywhere in this binary).
const bool g_trace_buf_env = [] {
  ::setenv("DEEPGATE_TRACE_BUF", "64", 1);
  return true;
}();

// Every test in this binary assumes recording is on regardless of the
// environment; tests that exercise the off path restore this.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_set_enabled(true);
    trace_set_enabled(false);
  }
  void TearDown() override {
    metrics_set_enabled(true);
    trace_set_enabled(false);
  }
};

// -- Histogram bucket placement ------------------------------------------------

TEST_F(ObsTest, HistogramBucketBoundaryValues) {
  Histogram h(latency_buckets());
  const std::vector<double>& bounds = h.bounds();
  ASSERT_GE(bounds.size(), 10u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_GE(bounds.back(), 1e3);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    ASSERT_LT(bounds[i - 1], bounds[i]) << "bounds must be strictly ascending";

  // A value exactly on a bound lands in the bucket whose LOWER bound it is:
  // cell 0 holds v < bounds[0], cell j >= 1 holds bounds[j-1] <= v < bounds[j].
  h.record(bounds[0]);                                  // -> cell 1
  h.record(std::nextafter(bounds[0], 0.0));             // -> cell 0 (underflow)
  h.record(bounds[4]);                                  // -> cell 5
  h.record(std::nextafter(bounds[4], 0.0));             // -> cell 4
  h.record(bounds.back());                              // -> last cell (overflow)
  h.record(bounds.back() * 100.0);                      // -> last cell
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), bounds.size() + 1);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[4], 1u);
  EXPECT_EQ(snap.counts[5], 1u);
  EXPECT_EQ(snap.counts.back(), 2u);
  EXPECT_EQ(snap.count, 6u);
}

TEST_F(ObsTest, HistogramSumUsesIntegerTicks) {
  Histogram h(latency_buckets());  // tick = 1 ns
  h.record(1.5e-3);
  h.record(2.5e-3);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.sum_ticks, 4000000u);  // exactly 4 ms in ns ticks
  EXPECT_DOUBLE_EQ(snap.sum(), 4e-3);
  EXPECT_DOUBLE_EQ(snap.mean(), 2e-3);
}

// -- Quantile edge cases -------------------------------------------------------

TEST_F(ObsTest, QuantileEdgeCases) {
  Histogram h(latency_buckets());
  // Empty: every quantile is 0.
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.99), 0.0);

  // Single sample: every quantile (including q=0 and q=1) reports the upper
  // bound of the one occupied bucket.
  h.record(2e-5);
  const HistogramSnapshot one = h.snapshot();
  const double only = one.quantile(0.5);
  EXPECT_GE(only, 2e-5);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), only);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), only);
  EXPECT_DOUBLE_EQ(one.quantile(-3.0), only);  // q clamps to [0, 1]
  EXPECT_DOUBLE_EQ(one.quantile(7.0), only);

  // All samples in one bucket: p50 == p95 == p99.
  Histogram same(latency_buckets());
  for (int i = 0; i < 100; ++i) same.record(3.3e-4);
  const HistogramSnapshot snap = same.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.50), snap.quantile(0.95));
  EXPECT_DOUBLE_EQ(snap.quantile(0.50), snap.quantile(0.99));

  // Underflow/overflow saturate at the layout edges.
  Histogram under(latency_buckets());
  under.record(1e-9);
  EXPECT_DOUBLE_EQ(under.snapshot().quantile(0.5), under.bounds().front());
  Histogram over(latency_buckets());
  over.record(1e9);
  EXPECT_DOUBLE_EQ(over.snapshot().quantile(0.5), over.bounds().back());
}

// -- Merge: exact associativity under any sharding -----------------------------

// The same sample stream recorded into 1, 2, 4, or 8 shard histograms and
// merged in fixed index order must produce bit-identical cells — counts,
// total, and the integer tick sum — hence bit-identical quantiles. This is
// what makes per-thread recording deterministic at any DEEPGATE_THREADS.
TEST_F(ObsTest, MergeIsBitIdenticalAcrossShardPartitions) {
  // Deterministic values spanning underflow to overflow (LCG, no libc rand).
  std::vector<double> values;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(state >> 11) / 9007199254740992.0;  // [0,1)
    values.push_back(1e-8 * std::pow(10.0, u * 13.0));  // 1e-8 .. 1e5 log-uniform
  }

  const auto shard_and_merge = [&](std::size_t shards) {
    std::vector<std::unique_ptr<Histogram>> hs;
    for (std::size_t s = 0; s < shards; ++s)
      hs.push_back(std::make_unique<Histogram>(latency_buckets()));
    for (std::size_t i = 0; i < values.size(); ++i)
      hs[i % shards]->record(values[i]);
    HistogramSnapshot merged = hs[0]->snapshot();
    for (std::size_t s = 1; s < shards; ++s) merged.merge(hs[s]->snapshot());
    return merged;
  };

  const HistogramSnapshot ref = shard_and_merge(1);
  EXPECT_EQ(ref.count, values.size());
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const HistogramSnapshot got = shard_and_merge(shards);
    EXPECT_EQ(got.counts, ref.counts) << shards << " shards";
    EXPECT_EQ(got.count, ref.count) << shards << " shards";
    EXPECT_EQ(got.sum_ticks, ref.sum_ticks) << shards << " shards";
    // Bit-identical derived statistics, not just approximately equal.
    EXPECT_EQ(got.quantile(0.50), ref.quantile(0.50)) << shards << " shards";
    EXPECT_EQ(got.quantile(0.95), ref.quantile(0.95)) << shards << " shards";
    EXPECT_EQ(got.quantile(0.99), ref.quantile(0.99)) << shards << " shards";
    EXPECT_EQ(got.sum(), ref.sum()) << shards << " shards";
  }

  // Mismatched layouts are ignored defensively, not corrupted.
  HistogramSnapshot merged = ref;
  Histogram other(size_buckets());
  other.record(7.0);
  merged.merge(other.snapshot());
  EXPECT_EQ(merged.count, ref.count);
}

// -- Counter / enable switch ---------------------------------------------------

TEST_F(ObsTest, MetricsDisabledDropsRecordingsBitwise) {
  Counter c;
  Histogram h(size_buckets());
  c.add(3);
  h.record(5.0);
  metrics_set_enabled(false);
  c.add(100);
  h.record(5.0);
  metrics_set_enabled(true);
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(h.count(), 1u);
}

// -- Registry ------------------------------------------------------------------

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  Counter& a = counter("obs_test.stable");
  Counter& b = counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);

  // First registration fixes the histogram layout; later opts are ignored.
  Histogram& h1 = histogram("obs_test.layout", latency_buckets());
  Histogram& h2 = histogram("obs_test.layout", size_buckets());
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.bounds().front(), 1e-6);
}

TEST_F(ObsTest, RegistryCallbackTokensPreventStaleRemoval) {
  const std::uint64_t token1 =
      registry().set_callback("obs_test.cb", [] { return 1.0; });
  // A second owner takes over the name; the first owner's token is stale.
  const std::uint64_t token2 =
      registry().set_callback("obs_test.cb", [] { return 2.0; });
  EXPECT_NE(token1, token2);
  registry().remove_callback("obs_test.cb", token1);  // stale: must be a no-op
  Snapshot snap = snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge_value("obs_test.cb"), 2.0);
  registry().remove_callback("obs_test.cb", token2);  // current: removes
  snap = snapshot();
  bool present = false;
  for (const auto& [name, v] : snap.gauges) present = present || name == "obs_test.cb";
  EXPECT_FALSE(present);

  // A throwing callback yields no sample instead of taking the process down.
  const std::uint64_t token3 = registry().set_callback(
      "obs_test.cb_throws", []() -> double { throw std::runtime_error("boom"); });
  EXPECT_NO_THROW(snapshot());
  registry().remove_callback("obs_test.cb_throws", token3);
}

TEST_F(ObsTest, SnapshotIsSortedAndDerivesHitRates) {
  counter("obs_test.lookup.hits").add(3);
  counter("obs_test.lookup.misses").add(1);
  const Snapshot snap = snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_TRUE(std::is_sorted(
      snap.gauges.begin(), snap.gauges.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_DOUBLE_EQ(snap.gauge_value("obs_test.lookup.hit_rate"), 0.75);
  // Well-known serving keys are pre-registered: present (possibly zero) in
  // every snapshot, so downstream consumers see a stable key set.
  EXPECT_NE(snap.find_histogram("serve.latency_seconds"), nullptr);
  // The JSON rendering parses as one object with the three sections.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("obs_test.lookup.hit_rate"), std::string::npos);
}

// TSan/ASan target: concurrent registration, recording, and snapshotting of
// the same names must be clean and must not lose counts.
TEST_F(ObsTest, RegistryConcurrentRecordingIsExact) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter("obs_test.conc.count").add();
        histogram("obs_test.conc.hist", latency_buckets()).record(1e-4);
        if (i % 256 == 0) (void)snapshot();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter("obs_test.conc.count").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram("obs_test.conc.hist").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// -- Scopes --------------------------------------------------------------------

// The snapshot reports each name as the retained total plus every live
// scope: two live scopes and a destroyed third sum exactly — counter values
// and bit-identical histogram cells — to one histogram that saw every
// sample. Scope counters keep counting with metrics off while scope
// histograms drop the sample.
TEST_F(ObsTest, ScopesSumExactlyIntoSnapshot) {
  const std::string count_name = "obs_test.scope.count";
  const std::string hist_name = "obs_test.scope.seconds";
  const Snapshot before = snapshot();
  const HistogramSnapshot* before_hist = before.find_histogram(hist_name);
  ASSERT_EQ(before_hist, nullptr) << "names must be fresh for this test";

  Histogram reference(latency_buckets());
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto record = [&](Scope& scope, int samples) {
    Counter& c = scope.counter(count_name);
    Histogram& h = scope.histogram(hist_name, latency_buckets());
    for (int i = 0; i < samples; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double u = static_cast<double>(state >> 11) / 9007199254740992.0;
      const double v = 1e-7 * std::pow(10.0, u * 9.0);
      c.add();
      h.record(v);
      reference.record(v);
    }
  };

  Scope a;
  Scope b;
  record(a, 300);
  record(b, 500);
  {
    Scope c;
    record(c, 700);
  }
  EXPECT_EQ(&a.counter(count_name), &a.counter(count_name));  // same object back

  // Recording off: the scope counter still counts, the histogram drops.
  metrics_set_enabled(false);
  a.counter(count_name).add(4);
  a.histogram(hist_name).record(1.0);
  metrics_set_enabled(true);
  EXPECT_EQ(a.counter(count_name).value(), 304u);
  EXPECT_EQ(a.histogram(hist_name).count(), 300u);

  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter_value(count_name), 1504u);
  const HistogramSnapshot* merged = snap.find_histogram(hist_name);
  ASSERT_NE(merged, nullptr);
  const HistogramSnapshot want = reference.snapshot();
  EXPECT_EQ(merged->counts, want.counts);
  EXPECT_EQ(merged->count, want.count);
  EXPECT_EQ(merged->sum_ticks, want.sum_ticks);
  EXPECT_EQ(merged->quantile(0.99), want.quantile(0.99));
}

// -- Trace ring ----------------------------------------------------------------

TEST_F(ObsTest, TraceDisabledRecordsNothing) {
  trace_clear();
  trace_instant("obs_test.noop", "test");
  { TraceSpan span("obs_test.noop_span", "test"); }
  EXPECT_TRUE(trace_events().empty());
}

TEST_F(ObsTest, TraceRingOverwritesOldestFirst) {
  trace_set_enabled(true);
  trace_clear();
  const std::size_t cap = trace_sink_stats().capacity;
  ASSERT_EQ(cap, 64u);  // g_trace_buf_env shrank the ring for this binary
  const TraceSinkStats before = trace_sink_stats();
  for (std::uint64_t i = 1; i <= cap + 10; ++i) trace_instant("obs_test.ev", "test", i);
  const TraceSinkStats after = trace_sink_stats();
  EXPECT_EQ(after.size, cap);
  EXPECT_EQ(after.recorded - before.recorded, cap + 10);
  EXPECT_EQ(after.dropped - before.dropped, 10u);

  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), cap);
  // Oldest first, the 10 oldest overwritten: ids are 11 .. cap+10 ascending.
  EXPECT_EQ(events.front().id, 11u);
  EXPECT_EQ(events.back().id, cap + 10);
  for (std::size_t i = 1; i < events.size(); ++i)
    ASSERT_EQ(events[i].id, events[i - 1].id + 1);
  trace_clear();
  EXPECT_TRUE(trace_events().empty());
  // clear() drops residency, not history: recorded/dropped keep accumulating.
  EXPECT_EQ(trace_sink_stats().recorded, after.recorded);
  EXPECT_EQ(trace_sink_stats().dropped, after.dropped);
}

TEST_F(ObsTest, TraceSpanAndChromeJsonExport) {
  trace_set_enabled(true);
  trace_clear();
  const std::uint64_t id = next_trace_id();
  const std::uint64_t ref = next_trace_id();
  EXPECT_NE(id, ref);
  { const TraceSpan span("obs_test.span", "test", id, ref); }
  trace_instant("obs_test.mark", "test", 0, 0, "budget");
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "obs_test.span");
  EXPECT_GE(events[0].dur_ns, 0);   // complete event
  EXPECT_EQ(events[0].id, id);
  EXPECT_EQ(events[0].ref, ref);
  EXPECT_EQ(events[0].detail, nullptr);
  EXPECT_EQ(events[1].dur_ns, -1);  // instant event
  EXPECT_STREQ(events[1].detail, "budget");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);

  std::ostringstream os;
  ASSERT_TRUE(dump_trace(os));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // the span
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // the instant
  EXPECT_NE(json.find("\"detail\": \"budget\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser (CI
  // additionally runs python3 -m json.tool over a real export).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// Timestamps print as integer microseconds plus exactly three decimals, so
// they stay exact to the nanosecond long after startup: a span 1000 s out
// lasting 1234 ns still renders its duration as 1.234 and its start to the ns.
TEST_F(ObsTest, TraceTimestampsAreExactAtLongUptime) {
  trace_set_enabled(true);
  trace_clear();
  const TraceClock::time_point start = TraceClock::now() + std::chrono::seconds(1000);
  trace_record("obs_test.late", "test", start, start + std::chrono::nanoseconds(1234));
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].dur_ns, 1234);
  const std::int64_t ns = events[0].start_ns;
  ASSERT_GT(ns, std::int64_t{999} * 1000 * 1000 * 1000);  // origin: process start or later
  char expected[96];
  std::snprintf(expected, sizeof(expected), "\"ts\": %lld.%03lld, \"dur\": 1.234",
                static_cast<long long>(ns / 1000), static_cast<long long>(ns % 1000));
  std::ostringstream os;
  ASSERT_TRUE(dump_trace(os));
  EXPECT_NE(os.str().find(expected), std::string::npos) << expected << "\n" << os.str();
}

// -- The bitwise-neutrality contract -------------------------------------------

// Metrics and tracing only observe: the same engine over the same graph must
// produce bit-identical probabilities and embeddings with DEEPGATE_METRICS /
// DEEPGATE_TRACE on or off, in every combination.
TEST_F(ObsTest, InferenceIsBitwiseIdenticalWithObservabilityOnOrOff) {
  deepgate::Options options;
  options.model.dim = 12;
  options.model.iterations = 3;
  options.model.mlp_hidden = 8;
  options.model.seed = 11;
  const deepgate::Engine engine(options);
  const gnn::CircuitGraph g = deepgate::prepare(data::gen_squarer(5), 2000, 6);

  metrics_set_enabled(true);
  trace_set_enabled(true);
  trace_clear();
  const std::vector<float> probs_on = engine.predict_probabilities(g);
  const nn::Matrix emb_on = engine.embeddings(g);

  metrics_set_enabled(false);
  trace_set_enabled(false);
  const std::vector<float> probs_off = engine.predict_probabilities(g);
  const nn::Matrix emb_off = engine.embeddings(g);

  metrics_set_enabled(true);
  trace_set_enabled(false);
  const std::vector<float> probs_mixed = engine.predict_probabilities(g);

  EXPECT_EQ(probs_on, probs_off);
  EXPECT_EQ(probs_on, probs_mixed);
  ASSERT_TRUE(emb_on.same_shape(emb_off));
  EXPECT_TRUE(std::equal(emb_on.data(), emb_on.data() + emb_on.size(), emb_off.data()));
  trace_clear();
}

}  // namespace
}  // namespace dg::obs
