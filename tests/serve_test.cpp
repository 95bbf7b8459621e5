// The async serving loop: served responses must be bit-exact with direct
// per-graph Engine inference for every Table II model family regardless of
// how requests happened to be batched; a free lane's window must close on an
// empty queue when neither the budget nor the member cap is reached, and on
// them when they are; try_submit must reject (not block) at capacity;
// shutdown must leave no unfulfilled futures; a traced burst must link every
// request to the forward span of the batch that served it.
#include "serve/server.hpp"

#include "core/deepgate.hpp"
#include "data/generators_large.hpp"
#include "data/generators_small.hpp"
#include "nn/arena.hpp"
#include "obs/obs.hpp"
#include "sim/probability.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <initializer_list>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

namespace dg {
namespace {

using deepgate::serve::Request;
using deepgate::serve::Response;
using deepgate::serve::Server;
using deepgate::serve::ServerOptions;
using deepgate::serve::SubmitStatus;
using gnn::AggKind;
using gnn::CircuitGraph;
using gnn::ModelConfig;
using gnn::ModelFamily;
using gnn::ModelSpec;

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.dim = 12;
  cfg.iterations = 3;
  cfg.mlp_hidden = 8;
  cfg.seed = 11;
  return cfg;
}

/// Heterogeneous workload: different depths, skip edges, a constant-collapsed
/// cone — the same mix the batched-inference suite uses.
std::vector<CircuitGraph> mixed_graphs() {
  std::vector<CircuitGraph> graphs;
  {
    aig::Aig a;
    const aig::Lit x = aig::make_lit(a.add_input(), false);
    const aig::Lit y = aig::make_lit(a.add_input(), false);
    const aig::Lit z = aig::make_lit(a.add_input(), false);
    a.add_output(a.add_and(a.add_and(x, y), a.add_and(x, z)));
    graphs.push_back(deepgate::prepare(a, 2000, 5));
  }
  graphs.push_back(deepgate::prepare(data::gen_squarer(5), 2000, 6));
  {
    util::Rng rng(21);
    graphs.push_back(deepgate::prepare(data::gen_epfl_like(rng), 2000, 7));
  }
  graphs.push_back(deepgate::prepare(data::gen_multiplier(4), 2000, 8));
  return graphs;
}

std::vector<ModelSpec> table2_specs() {
  return {
      {ModelFamily::kGcn, AggKind::kConvSum, false},
      {ModelFamily::kDagConv, AggKind::kConvSum, false},
      {ModelFamily::kDagRec, AggKind::kDeepSet, false},
      {ModelFamily::kDeepGate, AggKind::kAttention, true},
  };
}

// -- BoundedQueue::pop_window -------------------------------------------------

using deepgate::serve::BoundedQueue;
using deepgate::serve::CloseReason;
using deepgate::serve::PopResult;
using deepgate::serve::WindowLimits;

/// Queue items are their own cost (nodes, in the server).
std::size_t int_cost(int v) { return static_cast<std::size_t>(v); }

/// Pushes each value in order.
void push_all(BoundedQueue<int>& q, std::initializer_list<int> values) {
  for (int v : values) ASSERT_EQ(q.push(v), deepgate::serve::PushResult::kOk);
}

/// Runs pop_window on its own thread, so a test can watch it block.
struct AsyncWindow {
  std::vector<int> out;
  CloseReason reason = CloseReason::kBudget;
  std::atomic<bool> done{false};
  PopResult result = PopResult::kClosed;
  std::thread thread;

  AsyncWindow(BoundedQueue<int>& q, WindowLimits limits)
      : thread([this, &q, limits] {
          result = q.pop_window(out, reason, limits, int_cost);
          done.store(true);
        }) {}
  ~AsyncWindow() {
    if (thread.joinable()) thread.join();
  }
  AsyncWindow(const AsyncWindow&) = delete;
  AsyncWindow& operator=(const AsyncWindow&) = delete;
  void join() { thread.join(); }
};

TEST(BoundedQueue, PopWindowBlocksForTheFirstItem) {
  BoundedQueue<int> q(8);
  AsyncWindow w(q, {1000, 16, 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(w.done.load()) << "pop_window returned on an empty queue";
  push_all(q, {7});
  w.join();
  EXPECT_EQ(w.result, PopResult::kItem);
  EXPECT_EQ(w.out, std::vector<int>({7}));
  EXPECT_EQ(w.reason, CloseReason::kEmpty);
}

// Everything already queued is taken in one call, in FIFO order, up to the
// budget (the item that reaches it is included) or the member cap.
TEST(BoundedQueue, PopWindowTakesQueuedItemsUpToBudgetAndCap) {
  BoundedQueue<int> q(16);
  std::vector<int> out = {99};  // stale contents are cleared
  CloseReason reason = CloseReason::kDrain;

  push_all(q, {3, 4, 5, 6, 1, 1, 1, 2});
  ASSERT_EQ(q.pop_window(out, reason, {/*budget=*/10, /*max_items=*/8, /*lanes=*/1}, int_cost),
            PopResult::kItem);
  EXPECT_EQ(out, std::vector<int>({3, 4, 5}));  // 3 + 4 < 10 <= 3 + 4 + 5
  EXPECT_EQ(reason, CloseReason::kBudget);

  ASSERT_EQ(q.pop_window(out, reason, {100, /*max_items=*/3, 1}, int_cost), PopResult::kItem);
  EXPECT_EQ(out, std::vector<int>({6, 1, 1}));
  EXPECT_EQ(reason, CloseReason::kMaxGraphs);

  ASSERT_EQ(q.pop_window(out, reason, {100, 8, 1}, int_cost), PopResult::kItem);
  EXPECT_EQ(out, std::vector<int>({1, 2}));
  EXPECT_EQ(reason, CloseReason::kEmpty);
  EXPECT_EQ(q.size(), 0u);

  // Budget 0 and cap 0 each take exactly one item.
  push_all(q, {1, 1, 1});
  ASSERT_EQ(q.pop_window(out, reason, {0, 8, 1}, int_cost), PopResult::kItem);
  EXPECT_EQ(out, std::vector<int>({1}));
  EXPECT_EQ(reason, CloseReason::kBudget);
  ASSERT_EQ(q.pop_window(out, reason, {100, 0, 1}, int_cost), PopResult::kItem);
  EXPECT_EQ(out, std::vector<int>({1}));
  EXPECT_EQ(reason, CloseReason::kMaxGraphs);
  EXPECT_EQ(q.size(), 1u);
}

// With several lanes a window takes at most ceil(queued / lanes) items, its
// lane's fair share, and leaves the rest for the other lanes.
TEST(BoundedQueue, PopWindowTakesItsLaneShare) {
  BoundedQueue<int> q(16);
  std::vector<int> out;
  CloseReason reason = CloseReason::kBudget;
  const WindowLimits two_lanes{100, 8, 2};
  push_all(q, {1, 2, 3, 4, 5});
  ASSERT_EQ(q.pop_window(out, reason, two_lanes, int_cost), PopResult::kItem);
  EXPECT_EQ(out, std::vector<int>({1, 2, 3}));  // ceil(5 / 2)
  EXPECT_EQ(reason, CloseReason::kShare);
  ASSERT_EQ(q.pop_window(out, reason, two_lanes, int_cost), PopResult::kItem);
  EXPECT_EQ(out, std::vector<int>({4}));
  EXPECT_EQ(reason, CloseReason::kShare);
  ASSERT_EQ(q.pop_window(out, reason, two_lanes, int_cost), PopResult::kItem);
  EXPECT_EQ(out, std::vector<int>({5}));  // a lone item empties the queue
  EXPECT_EQ(reason, CloseReason::kEmpty);

  // Budget and member cap still bind first.
  push_all(q, {1, 1, 1, 1, 1, 1, 1, 1});
  ASSERT_EQ(q.pop_window(out, reason, {100, 2, 2}, int_cost), PopResult::kItem);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(reason, CloseReason::kMaxGraphs);
  ASSERT_EQ(q.pop_window(out, reason, {2, 8, 2}, int_cost), PopResult::kItem);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(reason, CloseReason::kBudget);
  ASSERT_EQ(q.pop_window(out, reason, {100, 8, 0}, int_cost), PopResult::kItem);
  EXPECT_EQ(out.size(), 4u);  // lanes 0 counts as 1: the whole queue
  EXPECT_EQ(reason, CloseReason::kEmpty);
}

// Freed slots wake a producer blocked on a full queue.
TEST(BoundedQueue, PopWindowUnblocksFullQueuePushes) {
  BoundedQueue<int> q(2);
  push_all(q, {1, 1});
  std::thread producer([&q] { push_all(q, {2, 3}); });
  std::vector<int> seen;
  std::vector<int> out;
  CloseReason reason = CloseReason::kBudget;
  while (seen.size() < 4) {
    ASSERT_EQ(q.pop_window(out, reason, {100, 8, 1}, int_cost), PopResult::kItem);
    seen.insert(seen.end(), out.begin(), out.end());
  }
  producer.join();
  EXPECT_EQ(seen, std::vector<int>({1, 1, 2, 3}));
}

TEST(BoundedQueue, PopWindowHonoursPause) {
  BoundedQueue<int> q(8);
  q.set_pop_paused(true);
  push_all(q, {1, 2, 3});
  AsyncWindow w(q, {1000, 16, 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(w.done.load()) << "pop_window took items while paused";
  EXPECT_EQ(q.size(), 3u);
  q.set_pop_paused(false);
  w.join();
  EXPECT_EQ(w.result, PopResult::kItem);
  EXPECT_EQ(w.out, std::vector<int>({1, 2, 3}));  // the whole backlog at once
  EXPECT_EQ(w.reason, CloseReason::kEmpty);
}

// kClosed only once the queue is closed AND drained: a closed queue still
// hands out what it holds (even while paused), the window that empties it
// reports kDrain, and a waiter blocked on an empty queue wakes with kClosed.
TEST(BoundedQueue, PopWindowReturnsClosedOnlyWhenClosedAndDrained) {
  BoundedQueue<int> q(8);
  q.set_pop_paused(true);
  AsyncWindow waiter(q, {1000, 16, 1});
  push_all(q, {1, 2, 3});
  q.close();
  waiter.join();
  EXPECT_EQ(waiter.result, PopResult::kItem);  // close overrides pause
  EXPECT_EQ(waiter.out, std::vector<int>({1, 2, 3}));
  EXPECT_EQ(waiter.reason, CloseReason::kDrain);

  std::vector<int> out = {99};
  CloseReason reason = CloseReason::kBudget;
  EXPECT_EQ(q.pop_window(out, reason, {1000, 16, 1}, int_cost), PopResult::kClosed);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(reason, CloseReason::kBudget);  // untouched
  int late = 4;
  EXPECT_EQ(q.push(late), deepgate::serve::PushResult::kClosed);

  BoundedQueue<int> empty(4);
  AsyncWindow blocked(empty, {1000, 16, 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(blocked.done.load());
  empty.close();
  blocked.join();
  EXPECT_EQ(blocked.result, PopResult::kClosed);
  EXPECT_TRUE(blocked.out.empty());
}

// -- Bit-exactness across every model family ----------------------------------

// The acceptance bar: whatever batches the server happens to form, every
// served response equals the direct single-graph Engine call bitwise.
TEST(ServeLoop, BitExactWithDirectEngineForAllFamilies) {
  const auto graphs = mixed_graphs();
  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    const deepgate::Engine engine(options);

    ServerOptions sopts;
    sopts.lanes = 2;
    sopts.node_budget = 160;  // forces several merged batches for this mix
    auto server = deepgate::serve::start(engine, sopts);

    // Several rounds so batch composition varies.
    std::vector<std::future<Response>> futures;
    for (int round = 0; round < 3; ++round)
      for (const auto& g : graphs) futures.push_back(server->submit({&g, true}));

    for (std::size_t k = 0; k < futures.size(); ++k) {
      const CircuitGraph& g = graphs[k % graphs.size()];
      const Response r = futures[k].get();
      // Bitwise, not approximate — the PR 3 merge guarantee carried through
      // the async loop and lane-owned model clones.
      EXPECT_EQ(r.probabilities, engine.predict_probabilities(g))
          << gnn::model_spec_label(spec) << " request " << k;
      const nn::Matrix emb = engine.embeddings(g);
      ASSERT_TRUE(r.embedding.same_shape(emb)) << gnn::model_spec_label(spec);
      EXPECT_TRUE(std::equal(emb.data(), emb.data() + emb.size(), r.embedding.data()))
          << gnn::model_spec_label(spec) << " request " << k;
      EXPECT_GE(r.batch_graphs, 1u);
      EXPECT_GE(r.latency_seconds, 0.0);
    }
    server->shutdown();
    const auto stats = server->stats();
    EXPECT_EQ(stats.served, futures.size());
    EXPECT_EQ(stats.cancelled, 0u);
    EXPECT_EQ(stats.failed, 0u);
  }
}

// Satellite of the fused-forward fix: when only SOME members of a batch ask
// for embeddings, the lane still runs one fused pass and slices embedding
// rows out for the requesters alone — non-requesters get an empty matrix,
// requesters get rows bit-exact with the direct Engine call.
TEST(ServeLoop, EmbeddingOnlyForRequestingMembers) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 1;
  sopts.node_budget = 1u << 30;
  sopts.max_graphs = graphs.size();
  auto server = deepgate::serve::start(engine, sopts);

  // One full window with alternating want_embedding flags.
  server->pause();
  std::vector<std::future<Response>> futures;
  for (std::size_t k = 0; k < graphs.size(); ++k)
    futures.push_back(server->submit({&graphs[k], /*want_embedding=*/k % 2 == 0}));
  server->resume();

  for (std::size_t k = 0; k < futures.size(); ++k) {
    const Response r = futures[k].get();
    EXPECT_EQ(r.probabilities, engine.predict_probabilities(graphs[k])) << "request " << k;
    if (k % 2 == 0) {
      const nn::Matrix emb = engine.embeddings(graphs[k]);
      ASSERT_TRUE(r.embedding.same_shape(emb)) << "request " << k;
      EXPECT_TRUE(std::equal(emb.data(), emb.data() + emb.size(), r.embedding.data()))
          << "request " << k;
    } else {
      EXPECT_EQ(r.embedding.rows(), 0) << "request " << k;
    }
  }
}

// Depth-aware packing reorders a window into groups of similar depth; the
// served results must still equal the single-graph path — packing only
// permutes batch composition.
TEST(ServeLoop, PackingPolicyCannotChangeResults) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 2;
  sopts.node_budget = 200;
  auto server = deepgate::serve::start(engine, sopts);
  std::vector<std::future<Response>> futures;
  for (const auto& g : graphs) futures.push_back(server->submit({&g}));
  for (std::size_t k = 0; k < futures.size(); ++k)
    EXPECT_EQ(futures[k].get().probabilities, engine.predict_probabilities(graphs[k]))
        << "depth_aware request " << k;
}

// -- Batch-formation policy ----------------------------------------------------

// A lone request is served at once: the free lane takes it, finds nothing
// else queued and closes the window on the empty queue, with the node budget
// and member cap nowhere near reached.
TEST(ServeLoop, LoneRequestClosesOnEmptyQueue) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 1;
  sopts.node_budget = 1u << 30;  // unreachable
  sopts.max_graphs = 1u << 20;   // unreachable
  auto server = deepgate::serve::start(engine, sopts);

  auto f = server->submit({&graphs[0]});
  // The future must resolve without any further submissions: only the empty
  // queue can close this window.
  ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  const Response r = f.get();
  EXPECT_EQ(r.probabilities, engine.predict_probabilities(graphs[0]));
  EXPECT_EQ(r.batch_graphs, 1u);
  const auto stats = server->stats();
  EXPECT_GE(stats.close_empty, 1u);
  EXPECT_EQ(stats.close_budget, 0u);
  EXPECT_EQ(stats.close_max_graphs, 0u);
}

// Requests held while paused queue up together; on resume the lane's window
// must close on the node budget before the queue runs empty.
TEST(ServeLoop, BudgetClosesBatch) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  std::size_t total_nodes = 0;
  for (const auto& g : graphs) total_nodes += static_cast<std::size_t>(g.num_nodes);

  ServerOptions sopts;
  sopts.lanes = 1;
  sopts.node_budget = total_nodes / 2;  // a full pass trips the budget twice-ish
  auto server = deepgate::serve::start(engine, sopts);

  server->pause();
  std::vector<std::future<Response>> futures;
  for (int round = 0; round < 2; ++round)
    for (const auto& g : graphs) futures.push_back(server->submit({&g}));
  server->resume();
  for (auto& f : futures) f.wait();
  server->shutdown();
  for (std::size_t k = 0; k < futures.size(); ++k)
    EXPECT_EQ(futures[k].get().probabilities,
              engine.predict_probabilities(graphs[k % graphs.size()]));
  const auto stats = server->stats();
  EXPECT_GE(stats.close_budget, 1u);
  EXPECT_EQ(stats.close_deadline, 0u);  // kept for old readers; never counts
  EXPECT_EQ(stats.served, futures.size());
}

TEST(ServeLoop, MaxGraphsClosesBatch) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 1;
  sopts.node_budget = 1u << 30;
  sopts.max_graphs = 2;
  auto server = deepgate::serve::start(engine, sopts);

  server->pause();
  std::vector<std::future<Response>> futures;
  for (const auto& g : graphs) futures.push_back(server->submit({&g}));  // 4 = 2 windows
  server->resume();
  for (auto& f : futures) f.wait();
  const auto stats = server->stats();
  EXPECT_GE(stats.close_max_graphs, 1u);
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const Response r = futures[k].get();
    EXPECT_LE(r.batch_graphs, 2u);
    EXPECT_EQ(r.probabilities, engine.predict_probabilities(graphs[k]));
  }
}

// -- Backpressure --------------------------------------------------------------

// try_submit must REJECT, not block, when the admission queue is at
// capacity. pause() gives a deterministic full-queue state: no lane can pop
// while paused, so capacity is exact.
TEST(ServeLoop, TrySubmitRejectsWhenQueueFull) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 1;
  sopts.queue_capacity = 3;
  auto server = deepgate::serve::start(engine, sopts);
  server->pause();

  std::vector<std::future<Response>> accepted;
  for (std::size_t i = 0; i < sopts.queue_capacity; ++i) {
    std::future<Response> f;
    ASSERT_EQ(server->try_submit({&graphs[i % graphs.size()]}, f), SubmitStatus::kAccepted);
    accepted.push_back(std::move(f));
  }
  // Queue is exactly full now: the next try_submit must reject immediately.
  std::future<Response> overflow;
  EXPECT_EQ(server->try_submit({&graphs[0]}, overflow), SubmitStatus::kOverloaded);
  EXPECT_FALSE(overflow.valid());
  EXPECT_EQ(server->stats().rejected_overload, 1u);
  EXPECT_EQ(server->stats().queue_depth, sopts.queue_capacity);

  // Releasing the backlog serves everything that was accepted, bit-exactly.
  server->resume();
  for (std::size_t i = 0; i < accepted.size(); ++i)
    EXPECT_EQ(accepted[i].get().probabilities,
              engine.predict_probabilities(graphs[i % graphs.size()]));
}

TEST(ServeLoop, InvalidAndDegenerateRequests) {
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);
  auto server = deepgate::serve::start(engine, ServerOptions{});

  EXPECT_THROW(server->submit({nullptr}), std::invalid_argument);
  std::future<Response> f;
  EXPECT_EQ(server->try_submit({nullptr}, f), SubmitStatus::kInvalid);

  // Zero-node graph: resolves immediately with an empty response.
  CircuitGraph empty;
  empty.finalize();
  auto fe = server->submit({&empty, true});
  ASSERT_EQ(fe.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Response r = fe.get();
  EXPECT_TRUE(r.probabilities.empty());
  EXPECT_EQ(r.embedding.rows(), 0);

  // Graphs built for another model (pe_L = 16; a 9-type raw netlist graph)
  // are refused at admission, naming the field, while a valid request held
  // in the queue beside them is still served.
  util::Rng rng(5);
  const netlist::Netlist nl = data::gen_itc_like(rng);
  CircuitGraph wide_pe = deepgate::prepare(nl, 2000, 6);
  wide_pe.finalize(16);
  const CircuitGraph nine_types =
      CircuitGraph::from_netlist(nl, sim::netlist_probabilities(nl, 2000, 7));
  const CircuitGraph good = deepgate::prepare(data::gen_squarer(4), 2000, 8);
  server->pause();
  auto fg = server->submit({&good});
  const std::pair<const CircuitGraph*, const char*> rejected[] = {
      {&wide_pe, "pe_L = 16"}, {&nine_types, "num_types = 9"}};
  for (const auto& [bad, field] : rejected) {
    try {
      server->submit({bad});
      ADD_FAILURE() << "submit accepted " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
    EXPECT_THROW(server->try_submit({bad}, f), std::invalid_argument);
  }
  server->resume();
  EXPECT_EQ(fg.get().probabilities, engine.predict_probabilities(good));
}

// -- Shutdown ------------------------------------------------------------------

// Drain shutdown: every admitted future resolves with a value.
TEST(ServeLoop, ShutdownDrainsAllFutures) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 2;
  sopts.node_budget = 1u << 30;
  auto server = deepgate::serve::start(engine, sopts);

  // Held while paused, so only the shutdown drain can release them.
  server->pause();
  std::vector<std::future<Response>> futures;
  for (int round = 0; round < 4; ++round)
    for (const auto& g : graphs) futures.push_back(server->submit({&g}));
  server->shutdown(/*drain=*/true);

  for (std::size_t k = 0; k < futures.size(); ++k) {
    ASSERT_EQ(futures[k].wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "unfulfilled future " << k;
    EXPECT_EQ(futures[k].get().probabilities,
              engine.predict_probabilities(graphs[k % graphs.size()]));
  }
  const auto stats = server->stats();
  EXPECT_EQ(stats.served, futures.size());
  EXPECT_GE(stats.close_drain, 1u);

  // Submissions after shutdown fail explicitly, with a fulfilled future —
  // including the zero-node fast path, which must not bypass the stop.
  auto late = server->submit({&graphs[0]});
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(late.get(), deepgate::serve::ServeError);
  std::future<Response> f;
  EXPECT_EQ(server->try_submit({&graphs[0]}, f), SubmitStatus::kStopped);
  CircuitGraph empty;
  empty.finalize();
  auto late_empty = server->submit({&empty});
  ASSERT_EQ(late_empty.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(late_empty.get(), deepgate::serve::ServeError);
  EXPECT_EQ(server->try_submit({&empty}, f), SubmitStatus::kStopped);
}

// Cancel shutdown: queued-but-unformed requests fail with ServeError — but
// every future still resolves (no broken promises, nothing hangs).
TEST(ServeLoop, CancelShutdownFailsQueuedFuturesDeterministically) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 1;
  sopts.queue_capacity = 16;
  auto server = deepgate::serve::start(engine, sopts);
  server->pause();  // hold everything in the admission queue

  std::vector<std::future<Response>> futures;
  for (int round = 0; round < 2; ++round)
    for (const auto& g : graphs) futures.push_back(server->submit({&g}));
  server->shutdown(/*drain=*/false);

  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    // Cancelled futures carry their timing like served ones: the request WAS
    // admitted, so the ServeError reports a real admission->failure latency
    // (the Response::latency_seconds fix for non-served fulfillment paths).
    try {
      f.get();
      ADD_FAILURE() << "expected ServeError from a cancelled future";
    } catch (const deepgate::serve::ServeError& e) {
      EXPECT_GT(e.latency_seconds, 0.0);
      EXPECT_GE(e.queue_seconds, 0.0);
      EXPECT_LE(e.queue_seconds, e.latency_seconds);
    }
  }
  const auto stats = server->stats();
  EXPECT_EQ(stats.cancelled, futures.size());
  EXPECT_EQ(stats.served, 0u);
}

// Destruction without explicit shutdown must also fulfill everything.
TEST(ServeLoop, DestructorDrains) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  std::vector<std::future<Response>> futures;
  {
    auto server = deepgate::serve::start(engine, ServerOptions{});
    for (const auto& g : graphs) futures.push_back(server->submit({&g}));
  }
  for (std::size_t k = 0; k < futures.size(); ++k)
    EXPECT_EQ(futures[k].get().probabilities, engine.predict_probabilities(graphs[k]));
}

// -- Stats balance -------------------------------------------------------------

// The accounting invariant of serve::Stats: once quiescent, every admitted
// request resolved exactly once — submitted == served + cancelled + failed —
// and rejected attempts are NOT part of submitted. Exercised across every
// admission path: submit, try_submit, the zero-node fast path, overload
// rejection, and both shutdown modes.
TEST(ServeStats, BalanceInvariantHoldsAtDrainShutdown) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 2;
  sopts.queue_capacity = 4;
  auto server = deepgate::serve::start(engine, sopts);

  CircuitGraph empty;
  empty.finalize();
  std::uint64_t attempts = 0, rejected = 0;

  // Zero-node fast path (admitted AND served immediately).
  auto fe = server->submit({&empty, true});
  ++attempts;

  // Fill the paused queue to capacity via try_submit, then collect overload
  // rejections — attempts that must never count as submitted.
  server->pause();
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < sopts.queue_capacity; ++i) {
    std::future<Response> f;
    ASSERT_EQ(server->try_submit({&graphs[i % graphs.size()]}, f), SubmitStatus::kAccepted);
    futures.push_back(std::move(f));
    ++attempts;
  }
  for (int i = 0; i < 3; ++i) {
    std::future<Response> f;
    ASSERT_EQ(server->try_submit({&graphs[0]}, f), SubmitStatus::kOverloaded);
    ++attempts;
    ++rejected;
  }
  server->resume();
  for (const auto& g : graphs) {
    futures.push_back(server->submit({&g, true}));
    ++attempts;
  }
  server->shutdown(/*drain=*/true);
  fe.get();
  for (auto& f : futures) f.get();

  const auto stats = server->stats();
  EXPECT_EQ(stats.submitted, stats.served + stats.cancelled + stats.failed);
  EXPECT_EQ(stats.submitted, attempts - rejected);
  EXPECT_EQ(stats.rejected_overload, rejected);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeStats, BalanceInvariantHoldsAtCancelShutdown) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 1;
  sopts.queue_capacity = 16;
  auto server = deepgate::serve::start(engine, sopts);

  // One request served before the cancel, the rest held in the queue.
  auto served = server->submit({&graphs[0]});
  served.get();
  server->pause();
  std::vector<std::future<Response>> held;
  for (const auto& g : graphs) held.push_back(server->submit({&g}));
  server->shutdown(/*drain=*/false);
  for (auto& f : held) EXPECT_THROW(f.get(), deepgate::serve::ServeError);

  // Attempts after shutdown are rejections, not submissions — never
  // admitted, so the error reports zero latency.
  auto late = server->submit({&graphs[0]});
  try {
    late.get();
    ADD_FAILURE() << "expected ServeError from a post-shutdown submit";
  } catch (const deepgate::serve::ServeError& e) {
    EXPECT_EQ(e.latency_seconds, 0.0);
    EXPECT_EQ(e.queue_seconds, 0.0);
  }

  const auto stats = server->stats();
  EXPECT_EQ(stats.submitted, stats.served + stats.cancelled + stats.failed);
  EXPECT_EQ(stats.submitted, 1u + held.size());
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.cancelled, held.size());
  EXPECT_EQ(stats.rejected_stopped, 1u);
}

// The per-server distribution snapshots must stay exactly in step with the
// balance counters: one latency/queue-seconds sample per served request, one
// queue-depth sample per admission (including the zero-node fast path), with
// deterministic quantiles derived from the integer cells.
TEST(ServeStats, HistogramCountsMatchBalanceCounters) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "DEEPGATE_METRICS=off";
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 2;
  auto server = deepgate::serve::start(engine, sopts);

  CircuitGraph empty;
  empty.finalize();
  std::vector<std::future<Response>> futures;
  futures.push_back(server->submit({&empty}));  // zero-node fast path counts too
  for (int round = 0; round < 3; ++round)
    for (const auto& g : graphs) futures.push_back(server->submit({&g}));
  server->shutdown(/*drain=*/true);
  for (auto& f : futures) f.get();

  const auto stats = server->stats();
  EXPECT_EQ(stats.served, futures.size());
  EXPECT_EQ(stats.latency_hist.count, stats.served);
  EXPECT_EQ(stats.queue_seconds_hist.count, stats.served);
  EXPECT_EQ(stats.queue_depth_hist.count, stats.submitted);
  // Quantiles are monotone and saturate within the bucket layout.
  const double p50 = stats.latency_hist.quantile(0.50);
  const double p99 = stats.latency_hist.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, stats.latency_hist.bounds.back());
}

// Every counter of a request is recorded before its promise is fulfilled, so
// stats() is exact right after get() — no shutdown, no waiting. Counters
// count whatever the metrics switch; histograms obey it; served bits never
// depend on it. The loop covers the environment's mode (DEEPGATE_METRICS)
// and a forced-off pass.
TEST(ServeStats, ExactAfterEveryGetWhateverTheMetricsSwitch) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);
  const bool env_metrics = obs::metrics_enabled();
  std::vector<std::vector<float>> want;
  for (const auto& g : graphs) want.push_back(engine.predict_probabilities(g));

  for (const bool metrics : {env_metrics, false}) {
    obs::metrics_set_enabled(metrics);
    ServerOptions sopts;
    sopts.lanes = 2;
    auto server = deepgate::serve::start(engine, sopts);

    // One at a time: the k-th get() is already counted.
    std::uint64_t n = 0;
    for (const auto& g : graphs) {
      EXPECT_EQ(server->submit({&g}).get().probabilities, want[n]) << "metrics " << metrics;
      ++n;
      const auto stats = server->stats();
      EXPECT_EQ(stats.served, n);
      EXPECT_EQ(stats.submitted, n);
    }
    // A burst: after the last get(), submitted == served == N.
    std::vector<std::future<Response>> futures;
    for (int round = 0; round < 3; ++round)
      for (const auto& g : graphs) futures.push_back(server->submit({&g}));
    for (std::size_t k = 0; k < futures.size(); ++k)
      EXPECT_EQ(futures[k].get().probabilities, want[k % want.size()]) << "metrics " << metrics;
    n += futures.size();
    const auto stats = server->stats();
    EXPECT_EQ(stats.served, n) << "metrics " << metrics;
    EXPECT_EQ(stats.submitted, stats.served) << "metrics " << metrics;
    EXPECT_GE(stats.batches, 1u);
    EXPECT_GT(stats.nodes_served, 0u);
    EXPECT_EQ(stats.latency_hist.count, metrics ? stats.served : 0u) << "metrics " << metrics;
    EXPECT_EQ(stats.queue_depth_hist.count, metrics ? stats.submitted : 0u)
        << "metrics " << metrics;
  }
  obs::metrics_set_enabled(env_metrics);
}

// The process-wide snapshot is the sum of the servers' scopes: across two
// sequential servers — the first destroyed (its scope folded into the
// retained total), the second live, then destroyed — the deltas of
// serve.requests.served and serve.latency_seconds.count equal the sum of
// their final Stats.
TEST(ServeStats, SnapshotDeltasEqualSumOfServerStats) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  const auto served = [](const obs::Snapshot& snap) {
    return snap.counter_value("serve.requests.served");
  };
  const auto latency_count = [](const obs::Snapshot& snap) {
    const obs::HistogramSnapshot* h = snap.find_histogram("serve.latency_seconds");
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  const auto run = [&](Server& server, int rounds) {
    std::vector<std::future<Response>> futures;
    for (int round = 0; round < rounds; ++round)
      for (const auto& g : graphs) futures.push_back(server.submit({&g}));
    for (auto& f : futures) f.get();
    return server.stats();
  };

  const obs::Snapshot before = obs::snapshot();
  deepgate::serve::Stats first;
  {
    auto server = deepgate::serve::start(engine, ServerOptions{});
    first = run(*server, 2);
  }
  auto server = deepgate::serve::start(engine, ServerOptions{});
  const deepgate::serve::Stats second = run(*server, 3);
  const obs::Snapshot live = obs::snapshot();
  EXPECT_EQ(served(live) - served(before), first.served + second.served);
  EXPECT_EQ(latency_count(live) - latency_count(before),
            first.latency_hist.count + second.latency_hist.count);
  server.reset();
  const obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(served(after) - served(before), first.served + second.served);
  EXPECT_EQ(latency_count(after) - latency_count(before),
            first.latency_hist.count + second.latency_hist.count);
}

/// Forces the metrics and trace switches for one scope, restoring both.
class ScopedObs {
 public:
  ScopedObs(bool metrics, bool trace)
      : metrics_(obs::metrics_enabled()), trace_(obs::trace_enabled()) {
    obs::metrics_set_enabled(metrics);
    obs::trace_set_enabled(trace);
  }
  ~ScopedObs() {
    obs::metrics_set_enabled(metrics_);
    obs::trace_set_enabled(trace_);
  }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

 private:
  bool metrics_;
  bool trace_;
};

// While a server is live, the process snapshot carries its lane-utilization
// callback gauge, the derived memo hit rate and the global pool's
// utilization. snapshot() never creates the pool, so the test does.
TEST(ServeStats, LiveSnapshotCarriesLaneMemoAndPoolGauges) {
  const ScopedObs obs_on(/*metrics=*/true, /*trace=*/obs::trace_enabled());
  util::global_pool();
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);
  ServerOptions sopts;
  sopts.lanes = 2;
  auto server = deepgate::serve::start(engine, sopts);
  server->submit({&graphs[0]}).get();

  const obs::Snapshot snap = obs::snapshot();
  const auto has_gauge = [&](const char* name) {
    return std::any_of(snap.gauges.begin(), snap.gauges.end(),
                       [&](const auto& gauge) { return gauge.first == name; });
  };
  EXPECT_TRUE(has_gauge("serve.lanes.utilization"));
  EXPECT_TRUE(has_gauge("gnn.memo.hit_rate"));
  EXPECT_TRUE(has_gauge("util.pool.utilization"));
}

// -- Tracing -------------------------------------------------------------------

// A traced burst on two lanes: every request has one admission and one
// fulfill span, each fulfill links (ref) to the forward span of the batch
// that served it, and no event was overwritten — the ring must hold the whole
// burst for the check to mean anything. The export goes to a fixed file in
// the working directory (the build directory under ctest), which CI parses
// as JSON.
TEST(ServeTrace, EveryRequestLinksToItsForwardSpan) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  const ScopedObs trace_on(/*metrics=*/obs::metrics_enabled(), /*trace=*/true);
  obs::trace_clear();
  const std::uint64_t dropped_before = obs::trace_sink_stats().dropped;
  ServerOptions sopts;
  sopts.lanes = 2;
  auto server = deepgate::serve::start(engine, sopts);
  std::vector<std::future<Response>> futures;
  for (int round = 0; round < 3; ++round)
    for (const auto& g : graphs) futures.push_back(server->submit({&g}));
  for (std::size_t k = 0; k < futures.size(); ++k)
    EXPECT_EQ(futures[k].get().probabilities,
              engine.predict_probabilities(graphs[k % graphs.size()]))
        << "request " << k;
  // A fulfill span closes after its promise is set: join the lanes first.
  server->shutdown();

  ASSERT_EQ(obs::trace_sink_stats().dropped, dropped_before) << "ring overwrote the burst";
  std::size_t admissions = 0;
  std::size_t window_closes = 0;
  std::set<std::uint64_t> forward_ids;
  std::vector<std::uint64_t> fulfill_refs;
  for (const obs::TraceEvent& e : obs::trace_events()) {
    const std::string_view name = e.name;
    if (name == "serve.admission") ++admissions;
    else if (name == "serve.fulfill") fulfill_refs.push_back(e.ref);
    else if (name == "serve.forward") forward_ids.insert(e.id);
    else if (name == "serve.window_close") ++window_closes;
  }
  EXPECT_EQ(admissions, futures.size());
  EXPECT_EQ(fulfill_refs.size(), futures.size());
  EXPECT_GE(window_closes, 1u);
  for (const std::uint64_t ref : fulfill_refs) {
    EXPECT_NE(ref, 0u);
    EXPECT_EQ(forward_ids.count(ref), 1u) << "fulfill ref " << ref;
  }
  EXPECT_TRUE(obs::dump_trace("TRACE_serve_test.json"));
}

// -- Options -------------------------------------------------------------------

// The serving loop packs windows like Engine::evaluate / gnn::execute packs
// merge groups: ServerOptions takes its batching defaults from
// gnn::ServeOptions instead of repeating them.
TEST(ServerOptions, BatchingDefaultsAreServeOptions) {
  const ServerOptions server;
  const gnn::ServeOptions execute;
  EXPECT_EQ(server.node_budget, execute.node_budget);
  EXPECT_EQ(server.max_graphs, execute.max_graphs);
}

// Identical full windows, round after round, serve the same bits as direct
// Engine calls.
TEST(ServeLoop, RepeatedTrafficServesIdenticalBits) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  ServerOptions sopts;
  sopts.lanes = 1;
  sopts.max_graphs = graphs.size();
  sopts.node_budget = 1u << 30;
  auto server = deepgate::serve::start(engine, sopts);

  // Identical full-window compositions: pause, load one full round, resume.
  for (int round = 0; round < 3; ++round) {
    server->pause();
    std::vector<std::future<Response>> futures;
    for (const auto& g : graphs) futures.push_back(server->submit({&g}));
    server->resume();
    for (std::size_t k = 0; k < futures.size(); ++k)
      EXPECT_EQ(futures[k].get().probabilities, engine.predict_probabilities(graphs[k]));
  }
  // Every group merges afresh; the cache fields stay at 0.
  const auto stats = server->stats();
  EXPECT_EQ(stats.merge_cache_hits + stats.merge_cache_misses, 0u);
}

// -- Depth-aware packing -------------------------------------------------------

TEST(PlanNodeBatchesByDepth, GroupsSimilarDepthsDeterministically) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  // Budget 0: singleton groups.
  auto groups = gnn::plan_node_batches_by_depth(ptrs, 0, 64);
  EXPECT_EQ(groups.size(), ptrs.size());

  // Huge budget: one group, ordered by depth (ascending), covering all.
  groups = gnn::plan_node_batches_by_depth(ptrs, 1u << 30, 64);
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].size(), ptrs.size());
  for (std::size_t i = 1; i < groups[0].size(); ++i)
    EXPECT_LE(ptrs[groups[0][i - 1]]->num_levels, ptrs[groups[0][i]]->num_levels);

  // max_graphs = 2: ceil(N/2) groups.
  groups = gnn::plan_node_batches_by_depth(ptrs, 1u << 30, 2);
  EXPECT_EQ(groups.size(), (ptrs.size() + 1) / 2);

  // Tight budget: within budget unless a lone graph exceeds it; every index
  // covered exactly once; group depth ranges do not interleave.
  groups = gnn::plan_node_batches_by_depth(ptrs, 120, 64);
  std::vector<int> seen(ptrs.size(), 0);
  int prev_max_depth = -1;
  for (const auto& group : groups) {
    ASSERT_FALSE(group.empty());
    std::size_t nodes = 0;
    int lo = 1 << 30, hi = -1;
    for (const std::size_t i : group) {
      seen[i] += 1;
      nodes += static_cast<std::size_t>(ptrs[i]->num_nodes);
      lo = std::min(lo, ptrs[i]->num_levels);
      hi = std::max(hi, ptrs[i]->num_levels);
    }
    if (group.size() > 1) {
      EXPECT_LE(nodes, 120u);
    }
    EXPECT_GE(lo, prev_max_depth) << "depth ranges interleave";
    prev_max_depth = hi;
  }
  for (const int s : seen) EXPECT_EQ(s, 1);

  // Mixed compatibility classes never share a group.
  CircuitGraph other = graphs[0];
  other.finalize(4);  // different pe_L
  std::vector<const CircuitGraph*> mixed = ptrs;
  mixed.push_back(&other);
  for (const auto& group : gnn::plan_node_batches_by_depth(mixed, 1u << 30, 64))
    for (const std::size_t i : group)
      EXPECT_EQ(mixed[i]->pe_L, mixed[group[0]]->pe_L);
}

// -- Engine degenerate-request handling ----------------------------------------

// Every Engine entry point runs the executor, which skips zero-node graphs:
// empty results, never a forward over an empty graph.
TEST(EngineBatch, EmptyAndZeroNodeGraphs) {
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  EXPECT_TRUE(engine.infer_batch({}).probabilities.empty());
  EXPECT_TRUE(engine.infer_batch({}).embeddings.empty());

  CircuitGraph empty;
  empty.finalize();
  EXPECT_TRUE(engine.predict_probabilities(empty).empty());
  EXPECT_EQ(engine.embeddings(empty).rows(), 0);
  const auto only_empty = engine.infer_batch({&empty});
  ASSERT_EQ(only_empty.probabilities.size(), 1u);
  EXPECT_TRUE(only_empty.probabilities[0].empty());
  EXPECT_EQ(only_empty.embeddings[0].rows(), 0);

  // Zero-node members mixed into a live batch: empty slots, live results
  // unchanged and bit-exact.
  const auto graphs = mixed_graphs();
  const auto mixed = engine.infer_batch({&graphs[0], &empty, &graphs[1]});
  ASSERT_EQ(mixed.probabilities.size(), 3u);
  EXPECT_EQ(mixed.probabilities[0], engine.predict_probabilities(graphs[0]));
  EXPECT_TRUE(mixed.probabilities[1].empty());
  EXPECT_EQ(mixed.probabilities[2], engine.predict_probabilities(graphs[1]));

  EXPECT_THROW(engine.infer_batch({&graphs[0], nullptr}), std::invalid_argument);
  EXPECT_EQ(engine.evaluate({empty}), 0.0);
}

// -- Arena steady state -------------------------------------------------------

// The PR 7 acceptance counter: after warm-up, a lane replaying identical
// traffic must perform ZERO arena heap allocations per request — every
// buffer a steady-state forward needs comes back out of the lane arena's
// freelists. Response matrices are copied outside the scope, so client-held
// results never drain the pool.
TEST(ServeLoop, SteadyStateRequestsHitZeroArenaHeapAllocs) {
  if (!nn::arena_enabled()) GTEST_SKIP() << "DEEPGATE_ARENA=off";
  deepgate::Options options;  // default spec: DeepGate w/ skip connections
  options.model = tiny_config();
  const deepgate::Engine engine(options);
  const auto graphs = mixed_graphs();
  const CircuitGraph& g = graphs[2];  // the deepest member of the mix

  ServerOptions sopts;
  sopts.lanes = 1;       // one lane -> one arena, deterministic reuse
  sopts.max_graphs = 1;  // solo batches: identical forward every request
  auto server = deepgate::serve::start(engine, sopts);

  const auto run_request = [&] {
    const Response r = server->submit({&g, true}).get();
    ASSERT_EQ(static_cast<int>(r.probabilities.size()), g.num_nodes);
    ASSERT_EQ(r.embedding.rows(), g.num_nodes);
  };
  // Warm-up fills the lane's freelists (first forward) plus one repeat to
  // cover one-time lane setup (clone, pool, response plumbing).
  for (int i = 0; i < 3; ++i) run_request();

  const nn::ArenaStats before = nn::arena_stats();
  constexpr int kSteadyRequests = 8;
  for (int i = 0; i < kSteadyRequests; ++i) run_request();
  const nn::ArenaStats after = nn::arena_stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << (after.heap_allocs - before.heap_allocs) << " arena heap allocs ("
      << (after.heap_bytes - before.heap_bytes) << " bytes) leaked into "
      << kSteadyRequests << " steady-state requests";
  EXPECT_GT(after.reuses, before.reuses) << "arena was never consulted";
  server->shutdown();
}

}  // namespace
}  // namespace dg
