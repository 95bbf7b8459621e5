// Serving-loop load generator: the async admission-queue server
// (serve::Server) vs the offline batched executor (gnn::execute) at EQUAL
// thread count, plus an open-loop arrival schedule for latency percentiles.
//
// Modes:
//   offline      gnn::execute over the whole request list, repeated — the
//                caller-driven baseline the serving loop must match.
//   serve_burst  every request submitted at once (closed bursts, one per
//                rep); measures serving throughput including queue overhead.
//   serve_open   open-loop generator: requests submitted on a fixed
//                inter-arrival schedule at ~70% of burst throughput,
//                independent of completions — the classic serving-latency
//                measurement. Reports p50/p99/max request latency from the
//                server-side accounting carried on each Response.
//   serve_burst_embed
//                the same closed bursts with want_embedding on every
//                request — the traffic class the single Model::forward_outputs
//                path fixed: embedding-bearing requests now cost ONE
//                level-loop forward (previously predict + embed ran two), so
//                this mode should track serve_burst instead of halving it.
//   serve_burst_nometrics
//                serve_burst again with DEEPGATE_METRICS and DEEPGATE_TRACE
//                forced off — the observability-overhead control. The served
//                outputs must stay bitwise identical, and the nodes/sec gap
//                vs serve_burst is reported (warned about above 3%).
//
// With --trace out.json (or DEEPGATE_TRACE=on) the serve_burst round runs
// traced; the span ring is validated (admission/fulfill spans for every
// request, each linked to a forward span) and exported as Chrome trace-event
// JSON loadable in chrome://tracing or Perfetto.
//
// Every served probability vector (and embedding, in the embed mode) is
// cross-checked bitwise against the direct Engine single-graph path. Honors
// --json out.json / DEEPGATE_BENCH_JSON (BENCH_micro_serve_loop.json in CI).
#include "harness.hpp"

#include "core/deepgate.hpp"
#include "data/generators_large.hpp"
#include "serve/server.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

struct Workload {
  int num_graphs;    // circuits in one request round
  int sim_patterns;  // label simulation (prep only)
  int reps;          // rounds of the full request list
};

Workload workload_for(dg::util::BenchScale scale) {
  switch (scale) {
    case dg::util::BenchScale::kTiny: return {12, 2000, 3};
    case dg::util::BenchScale::kPaper: return {96, 10000, 5};
    case dg::util::BenchScale::kSmall: break;
  }
  return {32, 5000, 4};
}

double percentile_ms(std::vector<double> seconds, double q) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const std::size_t idx = std::min(
      seconds.size() - 1, static_cast<std::size_t>(q * static_cast<double>(seconds.size())));
  return seconds[idx] * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dg;
  bench::Context ctx = bench::make_context(argc, argv);
  bench::print_banner("micro_serve_loop: async serving loop vs offline batched executor", ctx);

  // --trace out.json: force tracing on and export the serve_burst span ring
  // as Chrome trace-event JSON (CI validates it with `python3 -m json.tool`).
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  if (!trace_path.empty()) obs::trace_set_enabled(true);
  const bool tracing = obs::trace_enabled();

  const Workload wl = workload_for(ctx.scale);
  const int threads = util::default_num_threads();
  const int total_requests = wl.num_graphs * wl.reps;

  // Mixed-size serving workload (same shape as micro_serving).
  std::vector<gnn::CircuitGraph> graphs;
  std::size_t round_nodes = 0;
  for (int i = 0; i < wl.num_graphs; ++i) {
    const aig::Aig a = (i % 2 == 0) ? data::gen_squarer(5 + (i % 4))
                                    : data::gen_multiplier(3 + (i % 3));
    graphs.push_back(deepgate::prepare(a, static_cast<std::size_t>(wl.sim_patterns),
                                       ctx.seed + static_cast<std::uint64_t>(i)));
    round_nodes += static_cast<std::size_t>(graphs.back().num_nodes);
  }
  std::vector<const gnn::CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  std::printf("workload: %d graphs/round x %d rounds, %zu nodes/round, threads=%d\n\n",
              wl.num_graphs, wl.reps, round_nodes, threads);

  deepgate::Options options;
  options.model = ctx.model;
  const deepgate::Engine engine(options);

  std::vector<std::vector<float>> reference;
  reference.reserve(graphs.size());
  for (const auto& g : graphs) reference.push_back(engine.predict_probabilities(g));
  const auto check = [&](std::size_t request, const std::vector<float>& probs) {
    if (probs != reference[request % reference.size()]) {
      std::fprintf(stderr, "FAIL: served prediction diverged from single path (request %zu)\n",
                   request);
      std::exit(1);
    }
  };

  util::TextTable table({"mode", "threads", "seconds", "graphs/s", "p50 ms", "p99 ms"});
  std::vector<bench::JsonRecord> records;
  double offline_gps = 0.0;
  const auto record = [&](const char* mode, double seconds,
                          const std::vector<double>& latencies, std::uint64_t batches) {
    const double gps = static_cast<double>(total_requests) / seconds;
    const double nps = static_cast<double>(round_nodes) * wl.reps / seconds;
    const double p50 = percentile_ms(latencies, 0.50);
    const double p99 = percentile_ms(latencies, 0.99);
    const double pmax = percentile_ms(latencies, 1.0);
    if (offline_gps == 0.0) offline_gps = gps;
    table.add_row({mode, std::to_string(threads), util::fmt_fixed(seconds, 4),
                   util::fmt_fixed(gps, 1), latencies.empty() ? "-" : util::fmt_fixed(p50, 2),
                   latencies.empty() ? "-" : util::fmt_fixed(p99, 2)});
    records.push_back(bench::JsonRecord{}
                          .str("mode", mode)
                          .num("threads", threads)
                          .num("seconds", seconds)
                          .num("graphs_per_sec", gps)
                          .num("nodes_per_sec", nps)
                          .num("p50_ms", p50)
                          .num("p99_ms", p99)
                          .num("max_ms", pmax)
                          .num("batches", static_cast<double>(batches))
                          .num("speedup_vs_offline", gps / offline_gps));
  };

  // -- offline: the caller-driven executor at the same thread count ----------
  {
    gnn::ServeOptions opts = gnn::ServeOptions::from_env();
    opts.threads = threads;
    std::vector<std::vector<float>> out(ptrs.size());
    std::uint64_t batches = 0;
    util::Timer t;
    for (int rep = 0; rep < wl.reps; ++rep) {
      batches += gnn::execute(engine.model(), ptrs, opts, 0,
                              [&](std::size_t i, const gnn::Batch& batch, std::size_t member) {
                                out[i] = batch.prediction(member);
                              });
      for (std::size_t i = 0; i < out.size(); ++i) check(i, out[i]);
    }
    record("offline", t.seconds(), {}, batches);
  }

  deepgate::serve::ServerOptions sopts = deepgate::serve::ServerOptions::from_env();
  sopts.lanes = threads;
  sopts.queue_capacity = static_cast<std::size_t>(total_requests) + 1;
  // A window holds at most one request round.
  sopts.max_graphs = std::min<std::size_t>(sopts.max_graphs, static_cast<std::size_t>(wl.num_graphs));

  // -- serve_burst: closed bursts through the admission queue -----------------
  double burst_gps;
  double burst_nps = 0.0;
  if (tracing) obs::trace_clear();   // the exported/validated ring covers serve_burst only
  {
    auto server = deepgate::serve::start(engine, sopts);
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(total_requests));
    util::Timer t;
    for (int rep = 0; rep < wl.reps; ++rep) {
      std::vector<std::future<deepgate::serve::Response>> futures;
      futures.reserve(ptrs.size());
      for (const auto* g : ptrs) futures.push_back(server->submit({g}));
      for (std::size_t i = 0; i < futures.size(); ++i) {
        deepgate::serve::Response r = futures[i].get();
        check(i, r.probabilities);
        latencies.push_back(r.latency_seconds);
      }
    }
    const double seconds = t.seconds();
    burst_gps = static_cast<double>(total_requests) / seconds;
    burst_nps = static_cast<double>(round_nodes) * wl.reps / seconds;
    record("serve_burst", seconds, latencies, server->stats().batches);
  }

  // -- trace coverage: every burst request must show admission -> fulfill
  // spans linked (via ref) to the forward span of the batch that served it.
  if (tracing) {
    const obs::TraceSinkStats sink = obs::trace_sink_stats();
    if (sink.dropped == 0) {
      std::size_t admissions = 0;
      std::size_t fulfills = 0;
      std::size_t window_closes = 0;
      std::set<std::uint64_t> forward_ids;
      std::vector<std::uint64_t> fulfill_refs;
      for (const obs::TraceEvent& e : obs::trace_events()) {
        const std::string_view name = e.name;
        if (name == "serve.admission") ++admissions;
        else if (name == "serve.fulfill") { ++fulfills; fulfill_refs.push_back(e.ref); }
        else if (name == "serve.forward") forward_ids.insert(e.id);
        else if (name == "serve.window_close") ++window_closes;
      }
      bool linked = true;
      for (const std::uint64_t ref : fulfill_refs)
        linked = linked && ref != 0 && forward_ids.count(ref) != 0;
      if (admissions != static_cast<std::size_t>(total_requests) ||
          fulfills != static_cast<std::size_t>(total_requests) || window_closes == 0 ||
          !linked) {
        std::fprintf(stderr,
                     "FAIL: trace coverage: admission=%zu fulfill=%zu window_close=%zu "
                     "linked=%d (want %d/%d/>=1/1)\n",
                     admissions, fulfills, window_closes, linked ? 1 : 0, total_requests,
                     total_requests);
        return 1;
      }
      std::printf("trace: %zu admission + %zu fulfill spans over %zu batches, "
                  "%zu window closes — all fulfills linked to a forward span\n",
                  admissions, fulfills, forward_ids.size(), window_closes);
    } else {
      std::printf("trace: ring overwrote %llu events (DEEPGATE_TRACE_BUF too small); "
                  "skipping coverage check\n",
                  static_cast<unsigned long long>(sink.dropped));
    }
    if (!trace_path.empty()) {
      if (!obs::dump_trace(trace_path)) {
        std::fprintf(stderr, "FAIL: cannot write trace to %s\n", trace_path.c_str());
        return 1;
      }
      std::printf("trace json: %s\n", trace_path.c_str());
    }
  }

  // -- serve_burst_embed: closed bursts, every request wants its embedding ----
  {
    std::vector<nn::Matrix> reference_emb;
    reference_emb.reserve(graphs.size());
    for (const auto& g : graphs) reference_emb.push_back(engine.embeddings(g));
    auto server = deepgate::serve::start(engine, sopts);
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(total_requests));
    util::Timer t;
    for (int rep = 0; rep < wl.reps; ++rep) {
      std::vector<std::future<deepgate::serve::Response>> futures;
      futures.reserve(ptrs.size());
      for (const auto* g : ptrs) futures.push_back(server->submit({g, /*want_embedding=*/true}));
      for (std::size_t i = 0; i < futures.size(); ++i) {
        deepgate::serve::Response r = futures[i].get();
        check(i, r.probabilities);
        const nn::Matrix& want = reference_emb[i % reference_emb.size()];
        if (!r.embedding.same_shape(want) ||
            !std::equal(want.data(), want.data() + want.size(), r.embedding.data())) {
          std::fprintf(stderr, "FAIL: served embedding diverged from single path "
                               "(request %zu)\n", i);
          return 1;
        }
        latencies.push_back(r.latency_seconds);
      }
    }
    record("serve_burst_embed", t.seconds(), latencies, server->stats().batches);
  }

  // -- serve_burst_nometrics: the observability-overhead control --------------
  double nometrics_nps = 0.0;
  {
    const bool metrics_prev = obs::metrics_enabled();
    obs::metrics_set_enabled(false);
    obs::trace_set_enabled(false);
    {
      auto server = deepgate::serve::start(engine, sopts);
      std::vector<double> latencies;
      latencies.reserve(static_cast<std::size_t>(total_requests));
      util::Timer t;
      for (int rep = 0; rep < wl.reps; ++rep) {
        std::vector<std::future<deepgate::serve::Response>> futures;
        futures.reserve(ptrs.size());
        for (const auto* g : ptrs) futures.push_back(server->submit({g}));
        for (std::size_t i = 0; i < futures.size(); ++i) {
          deepgate::serve::Response r = futures[i].get();
          check(i, r.probabilities);  // bitwise identical with metrics off
          latencies.push_back(r.latency_seconds);
        }
      }
      const double seconds = t.seconds();
      nometrics_nps = static_cast<double>(round_nodes) * wl.reps / seconds;
      record("serve_burst_nometrics", seconds, latencies, server->stats().batches);
    }
    obs::metrics_set_enabled(metrics_prev);
    obs::trace_set_enabled(tracing);
  }

  // -- serve_open: open-loop fixed-rate arrivals at ~70% of burst capacity ----
  {
    auto server = deepgate::serve::start(engine, sopts);
    const double rate = 0.7 * burst_gps;  // offered load below saturation
    const auto interval = std::chrono::duration<double>(1.0 / rate);
    std::vector<std::future<deepgate::serve::Response>> futures;
    futures.reserve(static_cast<std::size_t>(total_requests));
    util::Timer t;
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < total_requests; ++k) {
      // Fixed schedule: request k is due at t0 + k*interval, regardless of
      // completions (open loop). Sleep only if we're early.
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(interval * k));
      futures.push_back(server->submit({ptrs[static_cast<std::size_t>(k) % ptrs.size()]}));
    }
    std::vector<double> latencies;
    latencies.reserve(futures.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
      deepgate::serve::Response r = futures[i].get();
      check(i, r.probabilities);
      latencies.push_back(r.latency_seconds);
    }
    const double seconds = t.seconds();
    const auto stats = server->stats();

    // -- snapshot acceptance: while the server is live, obs::snapshot() must
    // report its lane-utilization gauge and the derived hit-rate gauges.
    if (obs::metrics_enabled()) {
      const obs::Snapshot snap = obs::snapshot();
      const auto has_gauge = [&](const char* name) {
        for (const auto& [n, v] : snap.gauges)
          if (n == name) return true;
        return false;
      };
      if (!has_gauge("serve.lanes.utilization") || !has_gauge("gnn.memo.hit_rate") ||
          !has_gauge("util.pool.utilization")) {
        std::fprintf(stderr, "FAIL: obs snapshot lacks a serve/memo/pool gauge\n");
        return 1;
      }
      std::printf("obs snapshot: memo hit_rate=%.3f, serve lanes util=%.3f\n",
                  snap.gauge_value("gnn.memo.hit_rate"),
                  snap.gauge_value("serve.lanes.utilization"));
    }
    record("serve_open", seconds, latencies, stats.batches);
    std::printf("%s\n", table.render().c_str());
    std::printf("serve_open: %d req at %.1f req/s offered; close reasons "
                "budget=%llu max_graphs=%llu empty=%llu share=%llu drain=%llu\n",
                total_requests, rate,
                static_cast<unsigned long long>(stats.close_budget),
                static_cast<unsigned long long>(stats.close_max_graphs),
                static_cast<unsigned long long>(stats.close_empty),
                static_cast<unsigned long long>(stats.close_share),
                static_cast<unsigned long long>(stats.close_drain));
  }

  if (nometrics_nps > 0.0 && burst_nps > 0.0) {
    const double overhead_pct = (nometrics_nps - burst_nps) / nometrics_nps * 100.0;
    std::printf("observability overhead: serve_burst %.0f nodes/s with metrics%s vs %.0f "
                "without -> %.2f%%%s\n",
                burst_nps, tracing ? "+trace" : "", nometrics_nps, overhead_pct,
                overhead_pct > 3.0 ? "  (WARN: above the 3% budget)" : "");
  }
  std::printf("equivalence: served == single-graph path on all %d requests x 5 modes "
              "(probabilities + embeddings)\n", total_requests);
  if (!bench::write_json_report(ctx, "micro_serve_loop", records)) return 1;
  if (!ctx.json_path.empty()) std::printf("json report: %s\n", ctx.json_path.c_str());
  return 0;
}
