// Asynchronous serving loop over deepgate::Engine — the admission-queue
// front end the ROADMAP calls the "true serving loop".
//
//   deepgate::Engine engine(options);
//   auto server = deepgate::serve::start(engine);        // DEEPGATE_THREADS lanes
//   std::future<serve::Response> f = server->submit({&graph});
//   const std::vector<float>& probs = f.get().probabilities;
//
// Architecture (two stages, one bounded queue):
//
//   submit/try_submit --> [admission queue] --> N worker lanes
//     (futures out)        bounded MPMC,         a free lane takes the queued
//                          backpressure          window, packs it, runs the
//                                                merged forwards on its own
//                                                Model::clone(), fulfills
//                                                promises
//
// - submit() blocks while the admission queue is full; try_submit() instead
//   reports kOverloaded immediately — explicit backpressure, never silent
//   drops.
// - Serving is work-conserving: a free lane blocks for the first request,
//   then takes the requests already queued until accumulated nodes >=
//   node_budget, members >= max_graphs, or it holds its fair share of the
//   queue, ceil(queued / lanes) (BoundedQueue::pop_window). It never waits
//   for more traffic, so light traffic is forwarded alone with no batching
//   delay and heavy traffic batches whatever queued while every lane was
//   busy. Depth-aware packing (gnn::plan_node_batches_by_depth) then splits
//   the window into merge groups of similar level depth, which the lane
//   runs in order.
// - Each group runs through the executor's two steps (gnn/executor.hpp):
//   Batch::merge (CircuitGraph::merge for a multi-member group) and
//   Batch::forward — ONE Model::forward_outputs pass yields every member's
//   prediction AND embedding, and embedding rows are copied out only for
//   the members that asked. Merged forwards are bit-exact per member and
//   each lane's clone carries identical parameters, so a served Response
//   equals a direct Engine::predict_probabilities / Engine::embeddings call
//   REGARDLESS of how requests happened to be batched.
// - shutdown(drain=true) serves everything already admitted, then joins;
//   shutdown(drain=false) cancels still-queued requests with an explicit
//   exception (windows a lane already took still complete).
//   Either way every future returned by submit/try_submit is fulfilled —
//   no unfulfilled futures, deterministically.
#pragma once

#include "gnn/circuit_graph.hpp"
#include "gnn/executor.hpp"
#include "nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "serve/queue.hpp"
#include "util/mutex.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dg::gnn {
class Model;
}

namespace deepgate {

class Engine;

namespace serve {

using Clock = std::chrono::steady_clock;

struct Request {
  const dg::gnn::CircuitGraph* graph = nullptr;  ///< non-owning; must outlive the future
  bool want_embedding = false;                   ///< also return the N x d embedding
};

struct Response {
  std::vector<float> probabilities;  ///< per-node predicted probability (Eq. 8 output)
  dg::nn::Matrix embedding;          ///< N x d, only when Request::want_embedding

  // Latency accounting, measured on the serving side.
  double queue_seconds = 0.0;    ///< admission -> batch window closed
  double service_seconds = 0.0;  ///< window closed -> response fulfilled
  double latency_seconds = 0.0;  ///< admission -> response fulfilled

  // The batch composition this request was served in.
  std::size_t batch_graphs = 0;
  std::size_t batch_nodes = 0;
};

enum class SubmitStatus {
  kAccepted,    ///< future is live, response will arrive
  kOverloaded,  ///< admission queue full — explicit backpressure, retry later
  kStopped,     ///< server shut down
  kInvalid,     ///< null graph
};

struct ServerOptions {
  std::size_t queue_capacity = 256;  ///< admission queue bound (backpressure point)
  /// Close a window at this many nodes, or this many member graphs. The
  /// defaults are gnn::ServeOptions', so the serving loop packs like
  /// Engine::evaluate / gnn::execute.
  std::size_t node_budget = dg::gnn::ServeOptions{}.node_budget;
  std::size_t max_graphs = dg::gnn::ServeOptions{}.max_graphs;
  int lanes = 0;                     ///< worker lanes (model replicas); 0 = DEEPGATE_THREADS
};

/// A read-only view of one server's counts (its obs::Scope for the serve.*
/// snapshot names and its other counters) plus the current queue depth. Each
/// event is recorded once, before the future it concerns is fulfilled, so a
/// stats() read right after get() already counts it.
///
/// Accounting invariant (asserted by tests/serve_test.cpp): every admitted
/// request resolves exactly once, so at any quiescent point — after
/// shutdown(), or once every returned future is ready —
///
///   submitted == served + cancelled + failed
///
/// holds exactly. `submitted` is bumped in ONE place (Server::note_admitted,
/// through which every entry point flows); rejected_* count attempts that
/// were never admitted and are deliberately NOT part of `submitted`.
/// Counters count whatever DEEPGATE_METRICS says; histograms are empty off.
struct Stats {
  std::uint64_t submitted = 0;          ///< requests admitted (incl. zero-node fast path)
  std::uint64_t rejected_overload = 0;  ///< try_submit refused: queue full
  std::uint64_t rejected_stopped = 0;   ///< refused: server stopped
  std::uint64_t served = 0;             ///< futures fulfilled with a Response
  std::uint64_t cancelled = 0;          ///< futures failed at cancel-shutdown
  std::uint64_t failed = 0;             ///< futures failed by a forward error

  std::uint64_t windows = 0;            ///< admission windows closed
  std::uint64_t batches = 0;            ///< merge groups forwarded
  std::uint64_t close_budget = 0;       ///< windows closed on node budget
  std::uint64_t close_max_graphs = 0;   ///< ... on the member cap
  std::uint64_t close_empty = 0;        ///< ... with nothing else queued
  std::uint64_t close_share = 0;        ///< ... at the lane's fair share of the queue
  std::uint64_t close_drain = 0;        ///< ... by shutdown drain
  std::uint64_t close_deadline = 0;     ///< always 0: no window waits on a deadline

  std::uint64_t nodes_served = 0;       ///< total nodes across served requests

  std::uint64_t merge_cache_hits = 0;   ///< always 0: groups merge without a cache
  std::uint64_t merge_cache_misses = 0; ///< always 0: groups merge without a cache

  std::size_t queue_depth = 0;          ///< admission queue depth at snapshot time

  // Distributions (p50/p95/p99 derive deterministically via
  // HistogramSnapshot::quantile). With metrics on, latency_hist.count ==
  // served and queue_depth_hist.count == submitted exactly.
  dg::obs::HistogramSnapshot latency_hist;       ///< admission -> fulfilled, seconds
  dg::obs::HistogramSnapshot queue_seconds_hist; ///< admission -> window close, seconds
  dg::obs::HistogramSnapshot queue_depth_hist;   ///< admission-queue depth at each admission
};

class Server {
 public:
  /// Spins up `lanes` worker threads immediately. The engine must outlive
  /// the server; its model parameters are cloned per lane at startup, so
  /// concurrent training on the engine will NOT be picked up.
  explicit Server(const Engine& engine, const ServerOptions& options = ServerOptions{});
  ~Server();  ///< shutdown(/*drain=*/true)

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit a request, blocking while the queue is full. The returned future
  /// always resolves: with a Response, or with ServeError after a
  /// cancel-shutdown / submit-after-stop. Throws std::invalid_argument on a
  /// null graph or one built for another model (gnn::check_compatible), so
  /// a bad request never reaches, and fails, a merged batch. Zero-node
  /// graphs resolve immediately with an empty Response (nothing to forward).
  std::future<Response> submit(const Request& request);

  /// Non-blocking admission: kAccepted fills `out`; kOverloaded (queue at
  /// capacity) and kStopped/kInvalid leave it untouched and never block —
  /// the caller decides whether to retry, shed, or degrade. A graph built
  /// for another model throws std::invalid_argument, as in submit().
  SubmitStatus try_submit(const Request& request, std::future<Response>& out);

  /// Hold admissions: queued requests stay queued (try_submit eventually
  /// reports kOverloaded — a deterministic full-queue state for tests and
  /// maintenance). resume() releases the backlog; shutdown overrides pause.
  void pause();
  void resume();

  /// Stop accepting work and join all threads. drain=true serves every
  /// admitted request first; drain=false fails still-queued requests with
  /// ServeError (windows a lane already took still complete). Idempotent;
  /// every outstanding future is fulfilled either way.
  void shutdown(bool drain = true);

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  Stats stats() const;
  const ServerOptions& options() const { return options_; }

 private:
  struct Pending {
    Request request;
    std::promise<Response> promise;
    Clock::time_point admitted;
    std::uint64_t trace_id = 0;  ///< nonzero only while tracing is enabled
  };
  /// One of `lanes` worker threads: take windows until the queue is closed
  /// and drained.
  void lane_loop(int lanes);
  /// Count the window's close, then serve (or, at cancel-shutdown, fail)
  /// its merge groups in plan order on this lane's `model`.
  void serve_window(std::vector<Pending>& window, CloseReason reason,
                    const dg::gnn::Model& model);
  /// Merge, forward and fulfill one merge group.
  void run_group(std::vector<Pending>& members, Clock::time_point window_closed,
                 const dg::gnn::Model& model);
  /// The single site that bumps Stats::submitted (and served, for requests
  /// resolved at admission) — keeps the balance invariant audit-proof.
  /// `depth` is the admission-queue depth including this request.
  void note_admitted(std::size_t depth, bool served_immediately);
  /// submit (block) and try_submit after the null check: admit, or count
  /// the rejection. `out` is filled only on kAccepted.
  SubmitStatus admit(const Request& request, bool block, std::future<Response>& out);
  /// Fail an admitted request: the ServeError carries queue/latency timing
  /// measured up to the failure, so cancelled/failed futures report latency
  /// like served ones do.
  static void fail_admitted(Pending& pending, const char* what,
                            Clock::time_point window_closed = Clock::time_point{});

  const Engine& engine_;
  const ServerOptions options_;

  BoundedQueue<Pending> admission_;

  std::atomic<bool> stopped_{false};
  std::atomic<bool> cancel_{false};
  dg::util::Mutex lifecycle_mu_;  ///< serializes shutdown

  // Everything stats() reports, each recorded once (see Stats): the scope's
  // share of the serve.* names, then counts with no process-wide name.
  dg::obs::Scope scope_;
  dg::obs::Counter& submitted_ = scope_.counter("serve.requests.submitted");
  dg::obs::Counter& served_ = scope_.counter("serve.requests.served");
  dg::obs::Counter& cancelled_ = scope_.counter("serve.requests.cancelled");
  dg::obs::Counter& failed_ = scope_.counter("serve.requests.failed");
  dg::obs::Counter& windows_ = scope_.counter("serve.windows.closed");
  dg::obs::Histogram& latency_hist_ =
      scope_.histogram("serve.latency_seconds", dg::obs::latency_buckets());
  dg::obs::Histogram& queue_seconds_hist_ =
      scope_.histogram("serve.queue_seconds", dg::obs::latency_buckets());
  dg::obs::Histogram& queue_depth_hist_ =
      scope_.histogram("serve.queue_depth", dg::obs::size_buckets());
  dg::obs::Histogram& batch_nodes_hist_ =
      scope_.histogram("serve.batch_nodes", dg::obs::size_buckets());
  dg::obs::Counter rejected_overload_{/*always_on=*/true};
  dg::obs::Counter rejected_stopped_{true};
  dg::obs::Counter batches_{true};
  dg::obs::Counter nodes_served_{true};
  dg::obs::Counter close_budget_{true};
  dg::obs::Counter close_max_graphs_{true};
  dg::obs::Counter close_empty_{true};
  dg::obs::Counter close_share_{true};
  dg::obs::Counter close_drain_{true};

  // Serve-lane utilization: busy time accumulated by run_group across lanes,
  // published as the "serve.lanes.utilization" callback gauge (removed — by
  // token, so a newer server is never torn down — at shutdown).
  std::atomic<std::uint64_t> lanes_busy_ns_{0};
  Clock::time_point started_;
  std::uint64_t util_token_ = 0;

  std::vector<std::thread> lanes_;
};

/// Raised through futures when a request could not be served (cancelled at
/// shutdown, submitted after stop, or failed by a forward error). Admitted
/// requests carry their timing up to the failure — cancelled/failed futures
/// report latency just like served ones (never-admitted rejections report 0).
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(const std::string& what, double queue_seconds = 0.0,
                      double latency_seconds = 0.0)
      : std::runtime_error(what),
        queue_seconds(queue_seconds),
        latency_seconds(latency_seconds) {}

  double queue_seconds = 0.0;    ///< admission -> window close (0 if never formed)
  double latency_seconds = 0.0;  ///< admission -> failure fulfillment
};

/// Facade entry point: spin up the serving loop over `engine`.
///   auto server = deepgate::serve::start(engine);
std::unique_ptr<Server> start(const Engine& engine,
                              const ServerOptions& options = ServerOptions{});

}  // namespace serve
}  // namespace deepgate
