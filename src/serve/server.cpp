#include "serve/server.hpp"

#include "core/deepgate.hpp"
#include "gnn/executor.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace deepgate::serve {

using dg::gnn::CircuitGraph;
namespace obs = dg::obs;

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

const char* close_reason_name(CloseReason reason) {
  switch (reason) {
    case CloseReason::kBudget: return "budget";
    case CloseReason::kMaxGraphs: return "max_graphs";
    case CloseReason::kEmpty: return "empty";
    case CloseReason::kShare: return "share";
    case CloseReason::kDrain: return "drain";
  }
  return "?";
}

}  // namespace

Server::Server(const Engine& engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      admission_(options.queue_capacity),
      started_(Clock::now()) {
  const int lanes = options_.lanes > 0 ? options_.lanes : dg::util::default_num_threads();
  // Pull-style gauge: fraction of lane-seconds spent inside run_group since
  // startup. Token-scoped so a stale destructor can never tear down the
  // callback a newer server registered under the same name.
  util_token_ = obs::registry().set_callback("serve.lanes.utilization", [this, lanes] {
    const double alive = seconds_between(started_, Clock::now());
    if (alive <= 0.0 || lanes <= 0) return 0.0;
    const double busy =
        static_cast<double>(lanes_busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
    return std::min(1.0, busy / (alive * static_cast<double>(lanes)));
  });
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) lanes_.emplace_back([this, lanes] { lane_loop(lanes); });
}

Server::~Server() { shutdown(/*drain=*/true); }

void Server::fail_admitted(Pending& pending, const char* what, Clock::time_point window_closed) {
  const Clock::time_point now = Clock::now();
  const double queue_s = window_closed == Clock::time_point{}
                             ? seconds_between(pending.admitted, now)
                             : seconds_between(pending.admitted, window_closed);
  pending.promise.set_exception(std::make_exception_ptr(
      ServeError(what, queue_s, seconds_between(pending.admitted, now))));
}

void Server::note_admitted(std::size_t depth, bool served_immediately) {
  // The ONE place `submitted` is bumped — every admission flows through here
  // (submit and try_submit, queued and zero-node fast paths), so the Stats
  // balance invariant (submitted == served + cancelled + failed at
  // quiescence) cannot drift as entry points evolve. The same property keeps
  // queue_depth_hist.count == submitted exact.
  queue_depth_hist_.record(static_cast<double>(depth));
  submitted_.add();
  if (served_immediately) {
    // Zero-node fast path: served with ~zero latency; record it so
    // latency_hist.count == served stays exact.
    latency_hist_.record(0.0);
    queue_seconds_hist_.record(0.0);
    served_.add();
  }
}

std::future<Response> Server::submit(const Request& request) {
  if (request.graph == nullptr) throw std::invalid_argument("serve::submit: null graph");
  std::future<Response> future;
  if (admit(request, /*block=*/true, future) != SubmitStatus::kAccepted) {
    // Stopped: the caller still gets a fulfilled future, with the error.
    std::promise<Response> promise;
    future = promise.get_future();
    promise.set_exception(
        std::make_exception_ptr(ServeError("serve: submitted after shutdown")));
  }
  return future;
}

SubmitStatus Server::try_submit(const Request& request, std::future<Response>& out) {
  if (request.graph == nullptr) return SubmitStatus::kInvalid;
  return admit(request, /*block=*/false, out);
}

SubmitStatus Server::admit(const Request& request, bool block, std::future<Response>& out) {
  dg::gnn::check_compatible(engine_.model().config(), *request.graph);
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  // Keep the shutdown contract uniform: a stopped server admits nothing, not
  // even the zero-node fast path.
  PushResult pushed = PushResult::kClosed;
  if (!stopped() && request.graph->num_nodes == 0) {
    // Nothing to forward: resolve immediately with an empty response.
    note_admitted(admission_.size(), /*served_immediately=*/true);
    promise.set_value(Response{});
    pushed = PushResult::kOk;
  } else if (!stopped()) {
    Pending pending{request, std::move(promise), Clock::now()};
    if (obs::trace_enabled()) {
      pending.trace_id = obs::next_trace_id();
      obs::trace_instant("serve.submit", "serve", pending.trace_id);
    }
    // Admission is noted under the queue lock, before a lane can serve it.
    const auto admitted = [this](std::size_t depth) { note_admitted(depth, false); };
    pushed = block ? admission_.push(pending, admitted) : admission_.try_push(pending, admitted);
  }
  switch (pushed) {
    case PushResult::kOk:
      out = std::move(future);
      return SubmitStatus::kAccepted;
    case PushResult::kFull:
      rejected_overload_.add();
      return SubmitStatus::kOverloaded;
    case PushResult::kClosed:
      rejected_stopped_.add();
      return SubmitStatus::kStopped;
  }
  return SubmitStatus::kInvalid;  // unreachable
}

void Server::pause() {
  if (stopped()) return;
  admission_.set_pop_paused(true);
}

void Server::resume() { admission_.set_pop_paused(false); }

void Server::shutdown(bool drain) {
  dg::util::MutexLock lock(lifecycle_mu_);
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  // Unhook the utilization gauge before teardown: the callback captures
  // `this`, and a registry snapshot taken after this server dies must not
  // touch it. Token-matched, so a newer server's callback is left alone.
  obs::registry().remove_callback("serve.lanes.utilization", util_token_);
  cancel_.store(!drain, std::memory_order_release);
  // Closing overrides pause: a paused server still drains (or cancels) what
  // it holds instead of deadlocking, and every window taken from here on
  // sees a closed queue, so the one that empties it closes as kDrain.
  admission_.close();
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
}

Stats Server::stats() const {
  Stats snapshot;
  snapshot.submitted = submitted_.value();
  snapshot.rejected_overload = rejected_overload_.value();
  snapshot.rejected_stopped = rejected_stopped_.value();
  snapshot.served = served_.value();
  snapshot.cancelled = cancelled_.value();
  snapshot.failed = failed_.value();
  snapshot.windows = windows_.value();
  snapshot.batches = batches_.value();
  snapshot.close_budget = close_budget_.value();
  snapshot.close_max_graphs = close_max_graphs_.value();
  snapshot.close_empty = close_empty_.value();
  snapshot.close_share = close_share_.value();
  snapshot.close_drain = close_drain_.value();
  snapshot.nodes_served = nodes_served_.value();
  snapshot.queue_depth = admission_.size();
  snapshot.latency_hist = latency_hist_.snapshot();
  snapshot.queue_seconds_hist = queue_seconds_hist_.snapshot();
  snapshot.queue_depth_hist = queue_depth_hist_.snapshot();
  return snapshot;
}

// -- Worker lanes -------------------------------------------------------------

void Server::lane_loop(int lanes) {
  // A serve lane already owns a core, so the sweeps of its forwards run
  // inline instead of borrowing a pool lane: unguarded, the lanes would
  // serialize on the pool's submit lock for a whole sweep.
  const dg::util::InlineParallelGuard inline_sweeps;
  // Lane-owned replica: identical parameters, private mutable state.
  const std::unique_ptr<dg::gnn::Model> model = engine_.clone_model();
  const WindowLimits limits{options_.node_budget, options_.max_graphs,
                            static_cast<std::size_t>(lanes)};
  const auto nodes = [](const Pending& pending) {
    return static_cast<std::size_t>(pending.request.graph->num_nodes);
  };
  std::vector<Pending> window;
  CloseReason reason = CloseReason::kEmpty;
  while (admission_.pop_window(window, reason, limits, nodes) == PopResult::kItem)
    serve_window(window, reason, *model);
}

void Server::serve_window(std::vector<Pending>& window, CloseReason reason,
                          const dg::gnn::Model& model) {
  const Clock::time_point closed_at = Clock::now();
  obs::trace_instant("serve.window_close", "serve", 0, 0, close_reason_name(reason));
  windows_.add();
  switch (reason) {
    case CloseReason::kBudget: close_budget_.add(); break;
    case CloseReason::kMaxGraphs: close_max_graphs_.add(); break;
    case CloseReason::kEmpty: close_empty_.add(); break;
    case CloseReason::kShare: close_share_.add(); break;
    case CloseReason::kDrain: close_drain_.add(); break;
  }

  if (cancel_.load(std::memory_order_acquire)) {
    cancelled_.add(window.size());
    for (Pending& pending : window) {
      obs::trace_instant("serve.cancel", "serve", pending.trace_id);
      fail_admitted(pending, "serve: cancelled at shutdown", closed_at);
    }
    return;
  }

  std::vector<const CircuitGraph*> graphs;
  graphs.reserve(window.size());
  for (const Pending& pending : window) graphs.push_back(pending.request.graph);

  std::vector<Pending> members;
  for (const std::vector<std::size_t>& group :
       dg::gnn::plan_node_batches_by_depth(graphs, options_.node_budget, options_.max_graphs)) {
    members.clear();
    for (const std::size_t idx : group) members.push_back(std::move(window[idx]));
    run_group(members, closed_at, model);
  }
}

void Server::run_group(std::vector<Pending>& members, Clock::time_point window_closed,
                       const dg::gnn::Model& model) {
  const Clock::time_point work_start = Clock::now();
  // Batch correlation id: request-level spans recorded below carry ref=bid,
  // linking every member to the merge/forward spans of the batch that served
  // it in the exported trace.
  const std::uint64_t bid = obs::trace_enabled() ? obs::next_trace_id() : 0;
  dg::nn::NoGradGuard no_grad;
  std::vector<const CircuitGraph*> graphs;
  graphs.reserve(members.size());
  std::size_t batch_nodes = 0;
  for (const Pending& pending : members) {
    graphs.push_back(pending.request.graph);
    batch_nodes += static_cast<std::size_t>(pending.request.graph->num_nodes);
  }

  std::size_t fulfilled = 0;  // promises already resolved; never re-touched on error
  try {
    // The executor's two steps, each in its own span. Solo groups run as
    // themselves: no merge, no merge span.
    dg::gnn::Batch batch;
    if (graphs.size() > 1) {
      const obs::TraceSpan merge_span("serve.merge", "serve", bid);
      batch = dg::gnn::Batch::merge(graphs);
    } else {
      batch = dg::gnn::Batch::merge(graphs);
    }
    {
      obs::TraceSpan forward_span("serve.forward", "serve", bid);
      batch.forward(model);
    }
    const Clock::time_point done = Clock::now();
    batches_.add();
    batch_nodes_hist_.record(static_cast<double>(batch_nodes));

    for (std::size_t i = 0; i < members.size(); ++i) {
      Pending& pending = members[i];
      // Request-scoped spans: the queueing interval the member already spent
      // (admission -> window close), then the fulfillment work below — both
      // linked to this batch's merge/forward spans via ref=bid.
      obs::trace_record("serve.admission", "serve", pending.admitted, window_closed,
                        pending.trace_id, bid);
      obs::TraceSpan fulfill_span("serve.fulfill", "serve", pending.trace_id, bid);
      Response response;
      response.probabilities = batch.prediction(i);
      if (pending.request.want_embedding) response.embedding = batch.embedding(i);
      response.queue_seconds = seconds_between(pending.admitted, window_closed);
      response.service_seconds = seconds_between(window_closed, done);
      response.latency_seconds = seconds_between(pending.admitted, done);
      response.batch_graphs = graphs.size();
      response.batch_nodes = batch_nodes;
      // Recorded before the promise is fulfilled, so stats() never trails get().
      latency_hist_.record(response.latency_seconds);
      queue_seconds_hist_.record(response.queue_seconds);
      nodes_served_.add(static_cast<std::uint64_t>(pending.request.graph->num_nodes));
      served_.add();
      pending.promise.set_value(std::move(response));
      ++fulfilled;
    }
  } catch (const std::exception& e) {
    // Only the promises not yet resolved may be failed — set_exception on an
    // already-satisfied promise throws future_error out of the lane thread.
    // fail_admitted carries the timing into the ServeError, so even a
    // forward failure reports how long the request was held.
    failed_.add(members.size() - fulfilled);
    for (std::size_t i = fulfilled; i < members.size(); ++i)
      fail_admitted(members[i], e.what(), window_closed);
  }
  lanes_busy_ns_.fetch_add(ns_between(work_start, Clock::now()), std::memory_order_relaxed);
}

std::unique_ptr<Server> start(const Engine& engine, const ServerOptions& options) {
  return std::make_unique<Server>(engine, options);
}

}  // namespace deepgate::serve
