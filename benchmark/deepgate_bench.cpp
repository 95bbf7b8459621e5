// deepgate_bench: one workload of the DeepGate end-to-end benchmark per
// process (see benchmark/README.md for the workloads and their metrics).
//
//   deepgate_bench --workload NAME --seed N --seconds S [--trace-dir DIR]
//
// Prints one JSON document of raw measurements on stdout: per-request and
// per-operation samples, counter deltas around each measured phase, and the
// outcome of every correctness check. benchmark/run.py pins the environment
// and reduces the samples to metrics (percentiles, latency from due time,
// the rate ladder); run the binary through it. Inputs derive from --seed and
// two fixed corpora, and every correctness check runs outside the timed
// regions.
#include "aig/gate_graph.hpp"
#include "core/deepgate.hpp"
#include "core/incremental_session.hpp"
#include "data/dataset.hpp"
#include "data/generators_large.hpp"
#include "data/generators_small.hpp"
#include "netlist/to_aig.hpp"
#include "nn/arena.hpp"
#include "nn/kernels.hpp"
#include "nn/simd/dispatch.hpp"
#include "nn/tensor.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "sim/probability.hpp"
#include "synth/mutate.hpp"
#include "synth/optimize.hpp"
#include "synth/sweep.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;
using deepgate::CircuitGraph;
using dg::nn::Matrix;
namespace obs = dg::obs;
namespace serve = deepgate::serve;

/// Label simulation depth, as in the paper's data preparation (Sec. IV-A).
constexpr std::size_t kSimPatterns = 100000;

/// Seed of the fixed inputs: the serve workload's Table I sub-circuit corpus
/// and the ingest workload's netlist pool.
constexpr std::uint64_t kCorpusSeed = 1;

/// Open-loop rates of the serve workload, frozen as absolute numbers and
/// never derived from a run's own throughput (calibration: README.md).
constexpr double kLowRate = 100.0;
constexpr double kHighRate = 250.0;

/// Capacity ladder of the traced run: from the high rate up, x1.15 a step.
constexpr double kLadderFactor = 1.15;
constexpr int kLadderSteps = 8;

/// Samples that leave ten beyond a p99 and a p90, the tails metrics.py takes.
constexpr std::size_t kP99Samples = 1000;
constexpr std::size_t kP90Samples = 100;

/// Set-ups a run times at least, after its measured phases.
constexpr int kSetupRepeats = 3;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// -- JSON output ----------------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_nums(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_num(values[i]);
  }
  return out + "]";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i > 0 ? ", " : "") + items[i];
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (text_.size() > 1) text_ += ", ";
    text_ += json_str(key) + ": " + value;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, json_num(v)); }
  JsonObject& str(const std::string& key, const std::string& v) { return raw(key, json_str(v)); }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    return raw(key, json_nums(v));
  }
  JsonObject& obj(const std::string& key, const JsonObject& o) { return raw(key, o.text()); }
  std::string text() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

// -- Command line -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace_dir;  ///< non-empty: the traced run, which writes spans here

  bool traced() const { return !trace_dir.empty(); }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace-dir") args.trace_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

// -- Correctness and process counters ---------------------------------------------

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Every correctness check of a run. A failed check is also a failed
/// operation in the result run.py prints.
struct Checks {
  std::uint64_t run = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures, for the log

  void expect(bool ok, const std::string& what) {
    ++run;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Process counters sampled at phase boundaries; a phase reports the delta.
struct Probe {
  Clock::time_point at = Clock::now();
  double user_s = 0.0;
  double sys_s = 0.0;
  std::size_t arena_heap_allocs = 0;
  std::uint64_t pool_busy_ns = 0;
  std::size_t pool_lanes = 0;

  static Probe now() {
    Probe p;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    p.user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
    p.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    p.arena_heap_allocs = dg::nn::arena_stats().heap_allocs;
    if (dg::util::ThreadPool* pool = dg::util::global_pool_if_created()) {
      for (const dg::util::PoolLaneStats& lane : pool->lane_stats()) p.pool_busy_ns += lane.busy_ns;
      p.pool_lanes = static_cast<std::size_t>(pool->num_threads());
    }
    return p;
  }
};

JsonObject probe_delta(const Probe& from, const Probe& to) {
  return JsonObject()
      .num("wall_s", seconds_between(from.at, to.at))
      .num("cpu_user_s", to.user_s - from.user_s)
      .num("cpu_sys_s", to.sys_s - from.sys_s)
      .num("arena_heap_allocs", static_cast<double>(to.arena_heap_allocs - from.arena_heap_allocs))
      .num("pool_busy_s", 1e-9 * static_cast<double>(to.pool_busy_ns - from.pool_busy_ns))
      .num("pool_lanes", static_cast<double>(to.pool_lanes));
}

/// Wall-time cap on a closed loop that must also reach its minimum sample
/// count, so a pathological slowdown still ends the run.
Clock::duration run_cap(const Args& args) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(3.0 * args.seconds + 30.0));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// -- Model and shared measurements --------------------------------------------------

/// The paper's DeepGate (attention + skip connections) at d = 64, T = 10,
/// with seeded, untrained weights: timings do not depend on training.
deepgate::Options engine_options(std::uint64_t seed) {
  deepgate::Options options;
  options.model.dim = 64;
  options.model.iterations = 10;
  options.model.mlp_hidden = 32;
  options.model.seed = seed + 1000;
  return options;
}

/// The set-up the run keeps, timed as the first set-up sample.
template <class Build>
auto timed_setup(std::vector<double>& samples, const Build& build) {
  const Clock::time_point t0 = Clock::now();
  auto kept = build();
  samples.push_back(seconds_between(t0, Clock::now()));
  return kept;
}

/// Close a run: its peak memory as the workload left it, then at least
/// kSetupRepeats more set-ups, and more until about a second was spent (at
/// most 100). The first set-up of a process also pays for fresh pages, so
/// without the repeats the reported median would depend on the process's
/// first second.
template <class Build>
void finish(JsonObject& out, std::vector<double>& setup_s, const Build& build) {
  out.num("peak_rss_mb", peak_rss_mb());
  double total = 0.0;
  for (int i = 0; i < kSetupRepeats || (total < 1.0 && i < 100); ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto discarded = build();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    total += setup_s.back();
  }
  out.nums("setup_s", setup_s);
}

/// Operation-count estimate of one DeepGate forward from tensor sizes: the
/// GRU and attention matmuls of every updated level row, per direction and
/// iteration, plus the regressor heads. Elementwise work is left out.
double forward_flops_estimate(const CircuitGraph& g, const dg::gnn::ModelConfig& cfg) {
  const double d = cfg.dim;
  const double in = d + (cfg.refeed_input ? g.num_types : 0);
  const double gru_row = 2.0 * 3.0 * (in * d + d * d);
  double rows = 0.0;
  double edges = 0.0;
  for (int L = 0; L < g.num_levels; ++L) {
    const auto lvl = static_cast<std::size_t>(L);
    const dg::gnn::LevelBatch& fwd = cfg.use_skip ? g.fwd_skip[lvl] : g.fwd[lvl];
    for (const dg::gnn::LevelBatch* batch : {&fwd, &g.rev[lvl]}) {
      if (batch->empty()) continue;
      rows += static_cast<double>(g.nodes_at_level[lvl].size());
      edges += batch->num_edges;
    }
  }
  const double sweeps = cfg.iterations * (rows * (gru_row + 2.0 * d) + edges * 4.0 * d);
  const double regressor = g.num_nodes * 2.0 * (d * cfg.mlp_hidden + cfg.mlp_hidden);
  return sweeps + regressor;
}

/// Level steps of one forward: levels x 2 directions x T iterations.
double level_steps(const CircuitGraph& g, const dg::gnn::ModelConfig& cfg) {
  return static_cast<double>(g.num_levels) * 2.0 * cfg.iterations;
}

/// One full forward of `g` on this thread, kernels inline, as a pool worker
/// or a serve lane runs it. Returns the median of `reps` wall times.
double single_thread_forward_s(const dg::gnn::Model& model, const CircuitGraph& g, int reps) {
  const dg::util::InlineParallelGuard inline_kernels;
  const dg::nn::NoGradGuard no_grad;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    {
      const dg::nn::ArenaScope arena;
      const dg::gnn::ForwardOutputs out = model.forward_outputs(g);
      (void)out;
    }
    times.push_back(seconds_between(t0, Clock::now()));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// kern::matmul throughput at the GRU's hidden-state shape (rows x d times
/// d x d, d = 64) on one thread: `rows` = 32 is a thin level, 512 a wide
/// merged one.
double matmul_gflops(int rows) {
  const dg::util::InlineParallelGuard inline_kernels;
  dg::util::Rng rng(rows);
  Matrix a(rows, 64);
  Matrix b(64, 64);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float() - 0.5F;
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float() - 0.5F;
  double checksum = 0.0;  // consumed below, so no product is optimized away
  std::size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.25) {
    for (int r = 0; r < 64; ++r, ++calls) checksum += dg::nn::kern::matmul(a, b).data()[0];
    elapsed = seconds_between(t0, Clock::now());
  }
  if (!std::isfinite(checksum)) throw std::runtime_error("kern::matmul produced a non-finite value");
  return 2.0 * rows * 64.0 * 64.0 * static_cast<double>(calls) / elapsed * 1e-9;
}

/// Write the trace ring twice: as Chrome trace-event JSON for viewers, and
/// with exact integer nanoseconds for run.py's self-time arithmetic (the
/// Chrome export rounds timestamps).
void write_trace(const std::string& dir, Checks& checks) {
  const obs::TraceSinkStats stats = obs::trace_sink_stats();
  checks.expect(stats.dropped == 0,
                "trace ring dropped " + std::to_string(stats.dropped) + " events");
  checks.expect(obs::dump_trace(dir + "/trace.json"), "cannot write " + dir + "/trace.json");
  std::ofstream out(dir + "/trace_events.json");
  out << "{\"dropped\": " << stats.dropped << ", \"events\": [";
  bool first = true;
  for (const obs::TraceEvent& e : obs::trace_events()) {
    if (e.dur_ns < 0) continue;  // instants carry no duration
    out << (first ? "\n" : ",\n") << "[" << json_str(e.name != nullptr ? e.name : "?") << ", "
        << e.tid << ", " << e.start_ns << ", " << e.dur_ns << ", " << e.id << ", " << e.ref << "]";
    first = false;
  }
  out << "\n]}\n";
  out.flush();
  checks.expect(out.good(), "cannot write " + dir + "/trace_events.json");
}

// -- serve_subcircuits ---------------------------------------------------------------

struct RequestDraw {
  int graph = 0;
  bool want_embedding = false;
};

/// Seeded request mix: every corpus graph once per round, in a fresh
/// shuffled order each round, 25% of requests wanting embeddings. Rounds
/// keep each phase's mix of cone sizes fixed, so the few largest cones that
/// set the tails appear equally often in every run.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, int num_graphs) : rng_(seed), order_(num_graphs) {
    for (int i = 0; i < num_graphs; ++i) order_[static_cast<std::size_t>(i)] = i;
    next_ = order_.size();
  }
  RequestDraw next() {
    if (next_ == order_.size()) {
      rng_.shuffle(order_);
      next_ = 0;
    }
    RequestDraw d;
    d.graph = order_[next_++];
    d.want_embedding = rng_.next_bool(0.25);
    return d;
  }

 private:
  dg::util::Rng rng_;
  std::vector<int> order_;
  std::size_t next_ = 0;
};

struct ServeRecord {
  RequestDraw draw;
  double due = 0.0;     ///< seconds after phase start (open loop)
  double submit = 0.0;  ///< seconds after phase start
  std::future<serve::Response> future;
  serve::Response response;
  bool ok = false;

  void resolve() {
    try {
      response = future.get();
      ok = true;
    } catch (const std::exception&) {
      ok = false;
    }
  }
};

struct ServeSetup {
  std::unique_ptr<deepgate::Engine> engine;
  dg::data::Dataset dataset;
  Clock::time_point server_started;
  std::unique_ptr<serve::Server> server;  // declared last: stops before the rest
};

/// Fulfillment resolves a future before the lane folds its batch into
/// Stats; wait until every admitted request is accounted for.
serve::Stats settled_stats(const serve::Server& server) {
  serve::Stats stats = server.stats();
  for (int spin = 0; spin < 2000 && stats.served + stats.cancelled + stats.failed < stats.submitted;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server.stats();
  }
  return stats;
}

JsonObject stats_delta(const serve::Stats& a, const serve::Stats& b) {
  const auto d = [](std::uint64_t from, std::uint64_t to) { return static_cast<double>(to - from); };
  return JsonObject()
      .num("served", d(a.served, b.served))
      .num("rejected_overload", d(a.rejected_overload, b.rejected_overload))
      .num("windows", d(a.windows, b.windows))
      .num("close_budget", d(a.close_budget, b.close_budget))
      .num("close_max_graphs", d(a.close_max_graphs, b.close_max_graphs))
      .num("close_deadline", d(a.close_deadline, b.close_deadline))
      .num("batches", d(a.batches, b.batches))
      .num("nodes_served", d(a.nodes_served, b.nodes_served))
      .num("merge_cache_hits", d(a.merge_cache_hits, b.merge_cache_hits))
      .num("merge_cache_misses", d(a.merge_cache_misses, b.merge_cache_misses));
}

class ServeBench {
 public:
  ServeBench(ServeSetup& setup, Checks& checks) : setup_(setup), checks_(checks) {
    lanes_ = setup.server->options().lanes > 0 ? setup.server->options().lanes
                                                : dg::util::default_num_threads();
    // Oracle: every served response must equal the direct single-graph
    // Engine calls bitwise, however it was batched.
    for (const CircuitGraph& g : setup.dataset.graphs) {
      ref_prob_.push_back(setup.engine->predict_probabilities(g));
      ref_emb_.push_back(setup.engine->embeddings(g));
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// 32 requests in flight; each completion, oldest first, is
  /// replaced until `seconds` pass. Throughput is the completions inside the
  /// window over the time the last of them took: a window that ends mid-batch
  /// would otherwise quantize it to whole batches.
  JsonObject closed_loop(std::uint64_t stream_seed, double seconds) {
    constexpr int kOutstanding = 32;
    RequestStream stream(stream_seed, num_graphs());
    const PhaseStart start = begin_phase();
    std::deque<ServeRecord> inflight;
    std::vector<ServeRecord> done;
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point stop =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    const auto send = [&] {
      ServeRecord r;
      r.draw = stream.next();
      r.submit = seconds_between(t0, Clock::now());
      r.future = setup_.server->submit(request(r.draw));
      inflight.push_back(std::move(r));
    };
    for (int i = 0; i < kOutstanding; ++i) send();
    std::size_t completed = 0;
    double last_completion = 0.0;
    while (!inflight.empty()) {
      ServeRecord r = std::move(inflight.front());
      inflight.pop_front();
      r.resolve();
      const Clock::time_point now = Clock::now();
      if (now <= stop) {
        ++completed;
        last_completion = seconds_between(t0, now);
        send();
      }
      done.push_back(std::move(r));
    }
    JsonObject phase = end_phase(start, done);
    return phase.num("completed", static_cast<double>(completed))
        .num("completed_s", last_completion);
  }

  /// Open loop: request k is due at k / rate seconds after the phase
  /// starts, whatever happened to earlier requests; the generator (this
  /// thread) records when each was actually submitted.
  JsonObject open_loop(std::uint64_t stream_seed, double rate, std::size_t count) {
    RequestStream stream(stream_seed, num_graphs());
    const PhaseStart start = begin_phase();
    std::vector<ServeRecord> records(count);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t k = 0; k < count; ++k) {
      ServeRecord& r = records[k];
      r.draw = stream.next();
      r.due = static_cast<double>(k) / rate;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(r.due)));
      r.submit = seconds_between(t0, Clock::now());
      r.future = setup_.server->submit(request(r.draw));
    }
    for (ServeRecord& r : records) r.resolve();
    JsonObject phase = end_phase(start, records);
    return phase.num("rate", rate).num("window_s", static_cast<double>(count) / rate);
  }

 private:
  struct PhaseStart {
    Probe probe;
    serve::Stats stats;
    double lane_busy_s = 0.0;
  };

  int num_graphs() const { return static_cast<int>(setup_.dataset.graphs.size()); }

  serve::Request request(const RequestDraw& d) const {
    return {&setup_.dataset.graphs[static_cast<std::size_t>(d.graph)], d.want_embedding};
  }

  /// Lane-seconds spent serving since the server started, from the
  /// serve.lanes.utilization gauge (busy / (alive x lanes)).
  double lane_busy_s() const {
    const Clock::time_point now = Clock::now();
    const double util = obs::snapshot().gauge_value("serve.lanes.utilization");
    return util * seconds_between(setup_.server_started, now) * lanes_;
  }

  PhaseStart begin_phase() const {
    PhaseStart s;
    s.stats = settled_stats(*setup_.server);
    s.lane_busy_s = lane_busy_s();
    s.probe = Probe::now();
    return s;
  }

  JsonObject end_phase(const PhaseStart& start, std::vector<ServeRecord>& records) {
    const serve::Stats stats = settled_stats(*setup_.server);
    const Probe probe = Probe::now();
    const double busy = lane_busy_s() - start.lane_busy_s;
    std::vector<double> graph, due, submit, latency, queue, service;
    for (ServeRecord& r : records) {
      ++attempted_;
      graph.push_back(r.draw.graph);
      due.push_back(r.due);
      submit.push_back(r.submit);
      const auto g = static_cast<std::size_t>(r.draw.graph);
      bool ok = r.ok && same_bits(r.response.probabilities, ref_prob_[g]);
      if (ok && r.draw.want_embedding) ok = same_bits(r.response.embedding, ref_emb_[g]);
      checks_.expect(ok, r.ok ? "served response differs from Engine::predict_probabilities / "
                                "embeddings for graph " + std::to_string(g)
                              : "request failed: graph " + std::to_string(g));
      if (!ok) ++failed_;
      // A failed request has no latency; run.py counts it as missing every limit.
      latency.push_back(r.ok ? r.response.latency_seconds : -1.0);
      queue.push_back(r.response.queue_seconds);
      service.push_back(r.response.service_seconds);
    }
    return JsonObject()
        .num("requests", static_cast<double>(records.size()))
        .nums("graph", graph)
        .nums("due_s", due)
        .nums("submit_s", submit)
        .nums("latency_s", latency)
        .nums("queue_s", queue)
        .nums("service_s", service)
        .obj("stats", stats_delta(start.stats, stats))
        .num("lane_busy_share", busy / (lanes_ * seconds_between(start.probe.at, probe.at)))
        .obj("counters", probe_delta(start.probe, probe));
  }

  ServeSetup& setup_;
  Checks& checks_;
  int lanes_ = 1;
  std::vector<std::vector<float>> ref_prob_;
  std::vector<Matrix> ref_emb_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void run_serve(const Args& args, JsonObject& out, Checks& checks) {
  std::vector<double> setup_s;
  const auto build = [&] {
    auto s = std::make_unique<ServeSetup>();
    s->engine = std::make_unique<deepgate::Engine>(engine_options(args.seed));
    // The corpus is fixed; --seed drives the request stream and the weights.
    // Across corpus seeds the largest cone ranges from ~190 to ~1,100 nodes,
    // and those few cones set the tails.
    s->dataset = dg::data::build_dataset(
        dg::data::default_dataset_config(dg::util::BenchScale::kSmall, kCorpusSeed),
        dg::data::BuildOptions());
    s->server_started = Clock::now();
    s->server = serve::start(*s->engine);
    return s;
  };
  std::unique_ptr<ServeSetup> setup = timed_setup(setup_s, build);

  ServeBench bench(*setup, checks);
  const double s = args.seconds;
  const std::uint64_t seed = args.seed * 1000;
  // The run's seconds split 25/50/20 between the closed loop, the low rate,
  // whose p50 and p75 are end-to-end metrics, and the high rate, whose 1,000
  // requests support the printed p99.
  const auto open_count = [&](double rate, double share, std::size_t at_least) {
    return std::max(at_least, static_cast<std::size_t>(std::ceil(rate * share * s)));
  };
  JsonObject phases;
  phases.obj("warmup", bench.closed_loop(seed + 1, std::min(2.0, 0.1 * s)));
  phases.obj("closed", bench.closed_loop(seed + 2, 0.25 * s));
  if (args.traced()) {
    obs::trace_clear();
    obs::trace_set_enabled(true);
    phases.obj("closed_traced", bench.closed_loop(seed + 2, 0.25 * s));
  }
  phases.obj("low", bench.open_loop(seed + 3, kLowRate, open_count(kLowRate, 0.5, kP99Samples)));
  phases.obj("high", bench.open_loop(seed + 4, kHighRate, open_count(kHighRate, 0.2, kP99Samples)));
  if (args.traced()) {
    obs::trace_set_enabled(false);
    write_trace(args.trace_dir, checks);
    // Capacity ladder: fixed rates from the high rate up, untraced. run.py
    // decides which steps meet the latency limit.
    std::vector<std::string> steps;
    double rate = kHighRate;
    for (int k = 0; k < kLadderSteps; ++k, rate *= kLadderFactor)
      steps.push_back(
          bench.open_loop(seed + 10 + static_cast<std::uint64_t>(k), rate, kP99Samples).text());
    phases.raw("ladder", json_list(steps));
  }
  out.obj("phases", phases);
  std::vector<double> flops;
  for (const CircuitGraph& g : setup->dataset.graphs)
    flops.push_back(forward_flops_estimate(g, setup->engine->model().config()));
  out.nums("graph_flops_est", flops);
  out.num("attempted", static_cast<double>(bench.attempted()));
  out.num("failed", static_cast<double>(bench.failed()));
  finish(out, setup_s, build);
}

// -- eval_designs ----------------------------------------------------------------------

struct EvalSetup {
  std::unique_ptr<deepgate::Engine> engine;
  std::vector<std::string> names;
  std::vector<CircuitGraph> designs;
};

/// Eq. (8) over the set, one graph at a time on this thread, reduced in
/// set order exactly as gnn::evaluate reduces its per-graph errors.
double serial_eq8(const deepgate::Engine& engine, const std::vector<CircuitGraph>& set) {
  const dg::util::InlineParallelGuard inline_kernels;
  double total = 0.0;
  std::size_t nodes = 0;
  for (const CircuitGraph& g : set) {
    const std::vector<float> p = engine.predict_probabilities(g);
    const Matrix pred = Matrix::from_vector(g.num_nodes, 1, p);
    total += dg::gnn::avg_prediction_error(g.labels, pred) * static_cast<double>(g.num_nodes);
    nodes += static_cast<std::size_t>(g.num_nodes);
  }
  return nodes == 0 ? 0.0 : total / static_cast<double>(nodes);
}

void run_eval(const Args& args, JsonObject& out, Checks& checks) {
  std::vector<double> setup_s;
  const auto build = [&] {
    auto s = std::make_unique<EvalSetup>();
    s->engine = std::make_unique<deepgate::Engine>(engine_options(args.seed));
    std::uint64_t i = 0;
    for (const dg::data::LargeDesign& d : dg::data::table3_designs(dg::util::BenchScale::kSmall)) {
      s->names.push_back(d.name);
      s->designs.push_back(dg::data::graph_from_aig(d.aig, kSimPatterns, args.seed + 31 + i++));
    }
    return s;
  };
  std::unique_ptr<EvalSetup> setup = timed_setup(setup_s, build);
  const deepgate::Engine& engine = *setup->engine;

  engine.evaluate(setup->designs);  // warm-up: arenas and pool lanes
  std::vector<double> pass_s;
  std::vector<double> values;
  const Probe start = Probe::now();
  double elapsed = 0.0;
  while (elapsed < args.seconds || pass_s.size() < 3) {
    const Clock::time_point t0 = Clock::now();
    values.push_back(engine.evaluate(setup->designs));
    pass_s.push_back(seconds_between(t0, Clock::now()));
    elapsed += pass_s.back();
  }
  const Probe end = Probe::now();

  const double reference = serial_eq8(engine, setup->designs);
  std::uint64_t failed = 0;
  for (const double v : values) {
    const bool ok = std::memcmp(&v, &reference, sizeof v) == 0;
    checks.expect(ok, "Eq. (8) pass " + json_num(v) + " != serial reference " + json_num(reference));
    failed += ok ? 0 : 1;
  }

  std::vector<std::string> designs;
  for (std::size_t i = 0; i < setup->designs.size(); ++i) {
    const CircuitGraph& g = setup->designs[i];
    JsonObject d;
    d.str("name", setup->names[i])
        .num("nodes", g.num_nodes)
        .num("level_steps", level_steps(g, engine.model().config()))
        .num("flops_est", forward_flops_estimate(g, engine.model().config()));
    if (args.traced()) d.num("forward_s", single_thread_forward_s(engine.model(), g, 2));
    designs.push_back(d.text());
  }
  out.raw("designs", json_list(designs))
      .obj("phases", JsonObject().obj("passes", JsonObject()
                                                     .nums("pass_s", pass_s)
                                                     .obj("counters", probe_delta(start, end))))
      .num("attempted", static_cast<double>(values.size()))
      .num("failed", static_cast<double>(failed));
  finish(out, setup_s, build);
}

// -- incremental_edits -------------------------------------------------------------------

struct IncrementalSetup {
  std::unique_ptr<deepgate::Engine> engine;
  CircuitGraph circuit;  ///< the prepared arbiter every session starts from
  std::unique_ptr<deepgate::IncrementalSession> session;
};

/// A session on `circuit` after its memo-filling first query.
deepgate::IncrementalSession start_session(const deepgate::Engine& engine,
                                           const CircuitGraph& circuit) {
  deepgate::IncrementalSession session(engine, circuit);
  engine.predict_incremental(session);
  return session;
}

/// From-scratch oracle: every derived structure rebuilt from the mutated
/// graph's defining fields.
CircuitGraph rebuild(const CircuitGraph& g) {
  CircuitGraph fresh;
  fresh.num_nodes = g.num_nodes;
  fresh.num_types = g.num_types;
  fresh.type_id = g.type_id;
  fresh.level = g.level;
  fresh.edges = g.edges;
  fresh.skip_edges = g.skip_edges;
  fresh.labels = g.labels;
  fresh.finalize(g.pe_L);
  return fresh;
}

void run_incremental(const Args& args, JsonObject& out, Checks& checks) {
  std::vector<double> setup_s;
  const auto build = [&] {
    auto s = std::make_unique<IncrementalSetup>();
    s->engine = std::make_unique<deepgate::Engine>(engine_options(args.seed));
    s->circuit = deepgate::prepare(dg::data::gen_arbiter(8, 3), kSimPatterns, args.seed + 5);
    s->session = std::make_unique<deepgate::IncrementalSession>(start_session(*s->engine, s->circuit));
    return s;
  };
  std::unique_ptr<IncrementalSetup> setup = timed_setup(setup_s, build);
  const deepgate::Engine& engine = *setup->engine;
  deepgate::IncrementalSession& session = *setup->session;

  dg::util::Rng rng(args.seed * 1000003 + 11);
  std::vector<double> edit_s, query_s, latency_s, requery_s, dirty_frac;
  std::size_t rejected = 0, partial = 0, memo_hits = 0, queries = 0;
  double busy_s = 0.0;  // time inside the system under test
  std::uint64_t failed = 0;
  obs::trace_set_enabled(args.traced());
  const Probe start = Probe::now();
  const Clock::time_point hard_stop = start.at + run_cap(args);
  while ((busy_s < args.seconds || latency_s.size() < kP90Samples) &&
         Clock::now() < hard_stop) {
    const CircuitGraph& g = session.graph();
    dg::synth::MutationContext ctx;
    ctx.num_nodes = g.num_nodes;
    ctx.num_types = g.num_types;
    ctx.type_id = g.type_id;
    ctx.level = g.level;
    ctx.fanout_count = g.fanout_counts();
    const dg::synth::Mutation m = dg::synth::random_mutation(ctx, rng);

    const Clock::time_point t0 = Clock::now();
    try {
      switch (m.kind) {
        case dg::synth::Mutation::Kind::kInsert: session.insert_node(m.type_id, m.fanins); break;
        case dg::synth::Mutation::Kind::kDelete: session.delete_node(m.node); break;
        case dg::synth::Mutation::Kind::kRewire: session.rewire_node(m.node, m.fanins); break;
      }
    } catch (const std::invalid_argument&) {
      ++rejected;  // the cycle guard refused it: counted, then redrawn
      busy_s += seconds_between(t0, Clock::now());
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    const std::vector<float> probs = engine.predict_incremental(session);
    const Clock::time_point t2 = Clock::now();
    const dg::gnn::IncrementalRunStats stats = session.last_stats();
    ++queries;
    partial += stats.partial ? 1 : 0;
    memo_hits += stats.memo_hit ? 1 : 0;
    dirty_frac.push_back(stats.partial ? static_cast<double>(stats.dirty_nodes) /
                                             session.graph().num_nodes
                                       : 1.0);
    edit_s.push_back(seconds_between(t0, t1));
    query_s.push_back(seconds_between(t1, t2));
    latency_s.push_back(seconds_between(t0, t2));
    busy_s += latency_s.back();
    obs::trace_record("gnn.delta_edit", "bench", t0, t1);
    obs::trace_record("gnn.incremental_query", "bench", t1, t2);

    Matrix emb;
    const std::size_t applied = latency_s.size();
    if (applied % 10 == 0) {  // a second reader of the same generation: memo hit
      const Clock::time_point t3 = Clock::now();
      emb = engine.embeddings_incremental(session);
      requery_s.push_back(seconds_between(t3, Clock::now()));
      busy_s += requery_s.back();
      ++queries;
      memo_hits += session.last_stats().memo_hit ? 1 : 0;
    }
    if (applied % 50 == 0) {  // untimed: incremental == from-scratch rebuild
      const CircuitGraph fresh = rebuild(session.graph());
      const bool ok = same_bits(probs, engine.predict_probabilities(fresh)) &&
                      same_bits(emb, engine.embeddings(fresh));
      checks.expect(ok, "incremental outputs differ from a rebuild after edit " +
                            std::to_string(applied));
      failed += ok ? 0 : 1;
      // Untimed: start again from the arbiter. Inserts outnumber deletes and
      // rewires deepen the graph, so a session left running grew by as much
      // as its seed's edit stream chose, and its edits got up to 40% slower
      // within one run.
      session = start_session(engine, setup->circuit);
    }
  }
  const Probe end = Probe::now();
  obs::trace_set_enabled(false);
  if (args.traced()) write_trace(args.trace_dir, checks);

  JsonObject phase;
  phase.nums("edit_s", edit_s)
      .nums("query_s", query_s)
      .nums("latency_s", latency_s)
      .nums("requery_s", requery_s)
      .nums("dirty_frac", dirty_frac)
      .num("busy_s", busy_s)
      .num("rejected", static_cast<double>(rejected))
      .num("partial", static_cast<double>(partial))
      .num("memo_hits", static_cast<double>(memo_hits))
      .num("queries", static_cast<double>(queries))
      .obj("counters", probe_delta(start, end));
  if (args.traced()) {
    const CircuitGraph& g = session.graph();
    phase.num("forward_s", single_thread_forward_s(engine.model(), g, 3))
        .num("level_steps", level_steps(g, engine.model().config()))
        .num("flops_est", forward_flops_estimate(g, engine.model().config()));
  }
  out.obj("phases", JsonObject().obj("edits", phase))
      .num("attempted", static_cast<double>(latency_s.size() + rejected))
      .num("failed", static_cast<double>(failed));
  finish(out, setup_s, build);
}

// -- ingest_netlists -------------------------------------------------------------------

struct IngestSetup {
  std::unique_ptr<deepgate::Engine> engine;
  std::vector<dg::netlist::Netlist> netlists;
};

/// Netlist k of the fixed pool: the four Table I families in turn.
dg::netlist::Netlist make_netlist(std::size_t k) {
  dg::util::Rng rng(kCorpusSeed * 7777 + k);
  const std::vector<std::string>& families = dg::data::family_names();
  return dg::data::generate_family(families[k % families.size()], rng);
}

/// deepgate::prepare split into its stages, each recorded as a span (the
/// traced run's attribution).
CircuitGraph staged_prepare(const dg::netlist::Netlist& nl, std::uint64_t sim_seed,
                            const deepgate::Engine& engine, Matrix& emb) {
  const Clock::time_point t0 = Clock::now();
  const dg::aig::Aig aig = dg::netlist::to_aig(nl);
  const Clock::time_point t1 = Clock::now();
  dg::aig::Aig optimized = dg::synth::optimize(aig);
  if (optimized.uses_constants()) optimized = dg::synth::drop_constant_outputs(optimized);
  const Clock::time_point t2 = Clock::now();
  const dg::aig::GateGraph gg = dg::aig::to_gate_graph(optimized);
  const Clock::time_point t3 = Clock::now();
  const std::vector<double> labels = dg::sim::gate_graph_probabilities(gg, kSimPatterns, sim_seed);
  const Clock::time_point t4 = Clock::now();
  CircuitGraph g = CircuitGraph::from_gate_graph(gg, labels);
  const Clock::time_point t5 = Clock::now();
  emb = engine.embeddings(g);
  const Clock::time_point t6 = Clock::now();
  obs::trace_record("netlist.to_aig", "bench", t0, t1);
  obs::trace_record("synth.optimize", "bench", t1, t2);
  obs::trace_record("aig.to_gate_graph", "bench", t2, t3);
  obs::trace_record("sim.probabilities", "bench", t3, t4);
  obs::trace_record("gnn.from_gate_graph", "bench", t4, t5);
  obs::trace_record("gnn.single_forward", "bench", t5, t6);
  return g;
}

void run_ingest(const Args& args, JsonObject& out, Checks& checks) {
  // A fixed pool sized to take about --seconds at the seed's ~8 netlists/s,
  // ingested whole in a seeded order: every run sees the same mix of sizes,
  // and the few largest netlists set the p90.
  const std::size_t pool =
      std::max(kP90Samples, static_cast<std::size_t>(8.0 * args.seconds));
  std::vector<double> setup_s;
  const auto build = [&] {
    auto s = std::make_unique<IngestSetup>();
    s->engine = std::make_unique<deepgate::Engine>(engine_options(args.seed));
    for (std::size_t k = 0; k < pool; ++k) s->netlists.push_back(make_netlist(k));
    return s;
  };
  std::unique_ptr<IngestSetup> setup = timed_setup(setup_s, build);
  const deepgate::Engine& engine = *setup->engine;
  std::vector<std::size_t> order(pool);
  for (std::size_t k = 0; k < pool; ++k) order[k] = k;
  dg::util::Rng(args.seed).shuffle(order);

  std::vector<double> latency_s, flops;
  double busy_s = 0.0;
  std::uint64_t failed = 0;
  obs::trace_set_enabled(args.traced());
  const Probe start = Probe::now();
  const Clock::time_point hard_stop = start.at + run_cap(args);
  for (std::size_t i = 0; i < pool && Clock::now() < hard_stop; ++i) {
    const std::size_t k = order[i];
    const dg::netlist::Netlist& nl = setup->netlists[k];
    const std::uint64_t sim_seed = args.seed + 17 + k;
    const bool staged_first = args.traced() && i % 2 == 1;  // alternate to cancel order effects
    Matrix staged_emb;
    CircuitGraph staged;
    if (staged_first) staged = staged_prepare(nl, sim_seed, engine, staged_emb);

    const Clock::time_point t0 = Clock::now();
    const CircuitGraph g = deepgate::prepare(nl, kSimPatterns, sim_seed);
    const Matrix emb = engine.embeddings(g);
    latency_s.push_back(seconds_between(t0, Clock::now()));
    flops.push_back(forward_flops_estimate(g, engine.model().config()));
    busy_s += latency_s.back();

    if (args.traced()) {
      if (!staged_first) staged = staged_prepare(nl, sim_seed, engine, staged_emb);
      const bool ok = dg::gnn::bit_equal(staged, g) && same_bits(staged_emb, emb);
      checks.expect(ok, "staged prepare differs from deepgate::prepare on netlist " +
                            std::to_string(k));
      failed += ok ? 0 : 1;
    }
    if (i % 10 == 0) {  // untimed: the unbatched forward == the fused batched path
      const bool ok = same_bits(engine.infer_batch({&g}).embeddings[0], emb);
      checks.expect(ok, "Engine::embeddings differs from infer_batch on netlist " +
                            std::to_string(k));
      failed += ok ? 0 : 1;
    }
  }
  const Probe end = Probe::now();
  obs::trace_set_enabled(false);
  if (args.traced()) write_trace(args.trace_dir, checks);
  out.obj("phases", JsonObject().obj("ingest", JsonObject()
                                                   .nums("latency_s", latency_s)
                                                   .nums("flops_est", flops)
                                                   .num("busy_s", busy_s)
                                                   .obj("counters", probe_delta(start, end))))
      .num("attempted", static_cast<double>(latency_s.size()))
      .num("failed", static_cast<double>(failed));
  finish(out, setup_s, build);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepgate_bench: %s\n", e.what());
    return 2;
  }
  // Tracing is switched on only around the traced phases.
  obs::trace_set_enabled(false);

  JsonObject out;
  out.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .raw("traced", args.traced() ? "true" : "false");
  Checks checks;
  try {
    if (args.workload == "serve_subcircuits") run_serve(args, out, checks);
    else if (args.workload == "eval_designs") run_eval(args, out, checks);
    else if (args.workload == "incremental_edits") run_incremental(args, out, checks);
    else if (args.workload == "ingest_netlists") run_ingest(args, out, checks);
    else throw std::invalid_argument("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepgate_bench: %s\n", e.what());
    return 2;
  }
  if (args.traced()) {
    out.obj("matmul_gflops",
            JsonObject().num("thin", matmul_gflops(32)).num("wide", matmul_gflops(512)));
  }
  std::vector<std::string> errors;
  for (const std::string& e : checks.errors) errors.push_back(json_str(e));
  out.obj("checks", JsonObject()
                        .num("run", static_cast<double>(checks.run))
                        .num("failed", static_cast<double>(checks.failed))
                        .raw("errors", json_list(errors)))
      .obj("machine", JsonObject()
                          .num("nproc", std::thread::hardware_concurrency())
                          .num("threads", dg::util::default_num_threads())
                          .str("simd", dg::nn::kern::simd::level_name(
                                           dg::nn::kern::simd::active()))
                          .str("compiler", __VERSION__));
  std::printf("%s\n", out.text().c_str());
  return 0;
}
