// gnn::execute: groups from the depth planner, claimed longest first, with
// results bitwise equal to per-graph inference at any thread count and node
// budget; the caller-thread forward's helper lane, bitwise equal to the
// inline sweep; and the bounded DEEPGATE_SERVE_* knobs ServeOptions reads.
#include "core/deepgate.hpp"
#include "data/dataset.hpp"
#include "data/generators_large.hpp"
#include "data/generators_small.hpp"
#include "gnn/models.hpp"
#include "nn/arena.hpp"
#include "sim/probability.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dg {
namespace {

using gnn::CircuitGraph;

gnn::ModelConfig tiny_config() {
  gnn::ModelConfig cfg;
  cfg.dim = 12;
  cfg.iterations = 3;
  cfg.mlp_hidden = 8;
  cfg.seed = 11;
  return cfg;
}

bool bit_equal_matrix(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Graphs of different sizes and depths. Indices 1 and 4 are identical (a
/// tie in rows and depth), and 6 has the diamond's (3) node count at depth
/// one, so both tie-breaks of the claim order are observable.
std::vector<CircuitGraph> sized_graphs() {
  std::vector<CircuitGraph> graphs;
  graphs.push_back(deepgate::prepare(data::gen_multiplier(3), 500, 1));
  graphs.push_back(deepgate::prepare(data::gen_squarer(4), 500, 2));
  graphs.push_back(deepgate::prepare(data::gen_multiplier(5), 500, 3));
  {
    aig::Aig a;
    const aig::Lit x = aig::make_lit(a.add_input(), false);
    const aig::Lit y = aig::make_lit(a.add_input(), false);
    const aig::Lit z = aig::make_lit(a.add_input(), false);
    a.add_output(a.add_and(a.add_and(x, y), a.add_and(x, z)));
    graphs.push_back(deepgate::prepare(a, 500, 4));
  }
  graphs.push_back(graphs[1]);
  graphs.push_back(deepgate::prepare(data::gen_multiplier(4), 500, 5));
  {
    // Primary inputs only: one level, as many rows as the diamond.
    const std::size_t n = static_cast<std::size_t>(graphs[3].num_nodes);
    CircuitGraph wide;
    wide.num_nodes = graphs[3].num_nodes;
    wide.num_types = graphs[3].num_types;
    wide.type_id.assign(n, 0);
    wide.level.assign(n, 0);
    wide.labels.assign(n, 0.5F);
    wide.finalize();
    graphs.push_back(std::move(wide));
  }
  return graphs;
}

std::vector<const CircuitGraph*> pointers(const std::vector<CircuitGraph>& graphs) {
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  return ptrs;
}

std::size_t group_rows(const std::vector<const CircuitGraph*>& ptrs,
                       const std::vector<std::size_t>& group) {
  std::size_t rows = 0;
  for (const std::size_t i : group) rows += static_cast<std::size_t>(ptrs[i]->num_nodes);
  return rows;
}

int group_depth(const std::vector<const CircuitGraph*>& ptrs,
                const std::vector<std::size_t>& group) {
  int depth = 0;
  for (const std::size_t i : group) depth = std::max(depth, ptrs[i]->num_levels);
  return depth;
}

// -- Claim order ---------------------------------------------------------------

// At one thread the sink sees whole groups, largest total node rows first;
// equal rows go to the deeper group, then to the planner's order. The
// groups themselves are exactly plan_node_batches_by_depth's.
TEST(ExecuteOrder, SerialRunsGroupsLongestFirstTiesInPlanOrder) {
  const auto graphs = sized_graphs();
  const auto ptrs = pointers(graphs);
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  for (const std::size_t budget : {std::size_t{0}, std::size_t{300}, std::size_t{2048}}) {
    gnn::ServeOptions opts;
    opts.node_budget = budget;
    opts.threads = 1;
    std::vector<std::vector<std::size_t>> seen;
    const std::size_t forwards = gnn::execute(
        engine.model(), ptrs, opts, 0,
        [&](std::size_t i, const gnn::Batch&, std::size_t member) {
          if (member == 0) seen.emplace_back();
          ASSERT_EQ(member, seen.back().size());
          seen.back().push_back(i);
        });

    const auto plan = gnn::plan_node_batches_by_depth(ptrs, budget, opts.max_graphs);
    ASSERT_EQ(forwards, plan.size()) << "budget " << budget;
    ASSERT_EQ(seen.size(), plan.size()) << "budget " << budget;
    std::vector<std::size_t> position;
    for (const auto& group : seen) {
      const auto it = std::find(plan.begin(), plan.end(), group);
      ASSERT_NE(it, plan.end()) << "budget " << budget << ": group not in the plan";
      position.push_back(static_cast<std::size_t>(it - plan.begin()));
    }
    for (std::size_t k = 1; k < seen.size(); ++k) {
      const std::size_t prev = group_rows(ptrs, seen[k - 1]), rows = group_rows(ptrs, seen[k]);
      EXPECT_GE(prev, rows) << "budget " << budget << " group " << k;
      if (prev != rows) continue;
      const int prev_depth = group_depth(ptrs, seen[k - 1]), depth = group_depth(ptrs, seen[k]);
      EXPECT_GE(prev_depth, depth) << "budget " << budget << " group " << k;
      if (prev_depth == depth) {
        EXPECT_LT(position[k - 1], position[k]) << "budget " << budget << " group " << k;
      }
    }
  }

  // Singleton groups spelled out. By rows: multipliers 5 and 4, the
  // identical squarers in plan order (1, 4), multiplier 3, then the diamond
  // before the equally large but shallower input-only graph, although the
  // planner puts the shallower one first.
  gnn::ServeOptions solo;
  solo.node_budget = 0;
  solo.threads = 1;
  std::vector<std::size_t> order;
  gnn::execute(engine.model(), ptrs, solo, 0,
               [&](std::size_t i, const gnn::Batch&, std::size_t) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 5, 1, 4, 0, 3, 6}));
}

// -- Merged == solo at any thread count and budget -------------------------------

// Every lane count and budget returns each graph's per-graph prediction and
// embedding bit for bit. A zero-node graph never reaches the sink; a
// pre-merged super-graph interleaved in the request cannot share a group
// and runs as its own.
TEST(ExecuteEquivalence, BitwiseEqualToPerGraphAtAnyThreadsAndBudget) {
  auto graphs = sized_graphs();
  CircuitGraph empty;
  empty.num_types = graphs[0].num_types;
  empty.finalize();
  graphs.insert(graphs.begin() + 2, empty);
  graphs.insert(graphs.begin() + 4, CircuitGraph::merge({&graphs[0], &graphs[1]}));
  const auto ptrs = pointers(graphs);

  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);
  std::vector<std::vector<float>> ref_prob;
  std::vector<nn::Matrix> ref_emb;
  for (const auto& g : graphs) {
    ref_prob.push_back(g.num_nodes == 0 ? std::vector<float>{} : engine.predict_probabilities(g));
    ref_emb.push_back(g.num_nodes == 0 ? nn::Matrix{} : engine.embeddings(g));
  }

  for (const int threads : {1, 2, 4}) {
    for (const std::size_t budget : {std::size_t{0}, std::size_t{48}, std::size_t{2048}}) {
      gnn::ServeOptions opts;
      opts.node_budget = budget;
      opts.threads = threads;
      std::vector<std::vector<float>> prob(graphs.size());
      std::vector<nn::Matrix> emb(graphs.size());
      std::vector<int> calls(graphs.size(), 0);
      gnn::execute(engine.model(), ptrs, opts, 0,
                   [&](std::size_t i, const gnn::Batch& batch, std::size_t member) {
                     calls[i] += 1;
                     prob[i] = batch.prediction(member);
                     emb[i] = batch.embedding(member);
                   });
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        const std::string where = "threads " + std::to_string(threads) + " budget " +
                                  std::to_string(budget) + " graph " + std::to_string(i);
        EXPECT_EQ(calls[i], graphs[i].num_nodes == 0 ? 0 : 1) << where;
        EXPECT_EQ(prob[i], ref_prob[i]) << where;
        EXPECT_TRUE(bit_equal_matrix(emb[i], ref_emb[i])) << where;
      }
    }
  }

  // A graph of another type count (a 9-type raw netlist graph) is rejected
  // before any forward.
  util::Rng rng(5);
  const netlist::Netlist nl = data::gen_itc_like(rng);
  const CircuitGraph other =
      CircuitGraph::from_netlist(nl, sim::netlist_probabilities(nl, 2000, 7));
  std::vector<const CircuitGraph*> bad = ptrs;
  bad.insert(bad.begin() + 3, &other);
  int sink_calls = 0;
  gnn::ServeOptions opts;
  opts.threads = 2;
  EXPECT_THROW(gnn::execute(engine.model(), bad, opts, 0,
                            [&](std::size_t, const gnn::Batch&, std::size_t) { ++sink_calls; }),
               std::invalid_argument);
  EXPECT_EQ(sink_calls, 0);
}

// Eq. (8) over the tiny Table III designs on two lanes equals the serial
// per-graph reduction in test-set order, bit for bit.
TEST(ExecuteEquivalence, PooledEvaluateOnTable3MatchesSerialEq8) {
  std::vector<CircuitGraph> designs;
  std::uint64_t seed = 31;
  for (const data::LargeDesign& d : data::table3_designs(util::BenchScale::kTiny))
    designs.push_back(data::graph_from_aig(d.aig, 256, seed++));

  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  double total = 0.0;
  std::size_t nodes = 0;
  for (const CircuitGraph& g : designs) {
    const std::vector<float> p = engine.predict_probabilities(g);
    const nn::Matrix pred = nn::Matrix::from_vector(g.num_nodes, 1, p);
    total += gnn::avg_prediction_error(g.labels, pred) * static_cast<double>(g.num_nodes);
    nodes += static_cast<std::size_t>(g.num_nodes);
  }
  const double serial = total / static_cast<double>(nodes);

  gnn::ServeOptions opts;
  opts.threads = 2;
  const double pooled = gnn::evaluate(engine.model(), designs, opts);
  EXPECT_EQ(std::memcmp(&pooled, &serial, sizeof pooled), 0) << pooled << " vs " << serial;
}

// -- The helper lane of a caller-thread forward --------------------------------

/// Every member's probabilities and embedding after one no-grad forward of
/// `parts` (merged when several) on the calling thread.
std::vector<std::vector<float>> forward_members(const gnn::Model& model,
                                                const std::vector<const CircuitGraph*>& parts) {
  const nn::NoGradGuard no_grad;
  gnn::Batch batch = gnn::Batch::merge(parts);
  batch.forward(model);
  std::vector<std::vector<float>> out;
  for (std::size_t m = 0; m < parts.size(); ++m) {
    out.push_back(batch.prediction(m));
    const nn::Matrix emb = batch.embedding(m);
    out.emplace_back(emb.data(), emb.data() + emb.size());
  }
  return out;
}

bool bit_equal_members(const std::vector<std::vector<float>>& a,
                       const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].size() != b[i].size() ||
        (!a[i].empty() && std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) != 0))
      return false;
  return true;
}

// A caller-thread forward hands each sweep's hidden-side GRU products to an
// idle pool lane. The result must be the bits of the same forward run
// inline (InlineParallelGuard) and on a one-lane pool, for every
// DirectedLayer family, with the arena on and off, on a merged batch whose
// shallow members leave masked rows, at 2 and 4 lanes.
TEST(SweepHelper, PooledForwardBitwiseEqualsInlineAndOneLane) {
  const CircuitGraph deep = deepgate::prepare(data::gen_multiplier(4), 500, 21);
  const CircuitGraph shallow = deepgate::prepare(data::gen_squarer(3), 500, 22);
  const std::vector<std::vector<const CircuitGraph*>> inputs = {{&deep}, {&shallow, &deep}};
  const CircuitGraph merged = CircuitGraph::merge(inputs[1]);
  bool masked = false;
  for (const gnn::LevelBatch& b : merged.rev) masked = masked || b.masked();
  ASSERT_TRUE(masked) << "the merged batch must exercise the masked row select";

  const std::vector<gnn::ModelSpec> specs = {
      {gnn::ModelFamily::kDagConv, gnn::AggKind::kConvSum, false},
      {gnn::ModelFamily::kDagRec, gnn::AggKind::kAttention, false},
      {gnn::ModelFamily::kDeepGate, gnn::AggKind::kAttention, false},
      {gnn::ModelFamily::kDeepGate, gnn::AggKind::kAttention, true},
  };
  gnn::ModelConfig cfg = tiny_config();
  cfg.iterations = 2;
  const bool arena_was = nn::arena_enabled();
  std::uint64_t worker_chunks = 0;
  for (const gnn::ModelSpec& spec : specs) {
    const std::unique_ptr<gnn::Model> model = gnn::make_model(spec, cfg);
    for (const bool arena_on : {true, false}) {
      nn::arena_set_enabled(arena_on);
      for (const auto& parts : inputs) {
        util::set_global_threads(1);
        const auto one_lane = forward_members(*model, parts);
        for (const int lanes : {2, 4}) {
          util::set_global_threads(lanes);
          const std::string where = gnn::model_spec_label(spec) + (arena_on ? " arena" : " heap") +
                                    " members " + std::to_string(parts.size()) + " lanes " +
                                    std::to_string(lanes);
          const auto pooled = forward_members(*model, parts);
          std::vector<std::vector<float>> inline_run;
          {
            const util::InlineParallelGuard inline_only;
            inline_run = forward_members(*model, parts);
          }
          EXPECT_TRUE(bit_equal_members(pooled, inline_run)) << where << ": pooled vs inline";
          EXPECT_TRUE(bit_equal_members(pooled, one_lane)) << where << ": pooled vs one lane";
          const std::vector<util::PoolLaneStats> stats = util::global_pool().lane_stats();
          for (std::size_t lane = 1; lane < stats.size(); ++lane) worker_chunks += stats[lane].chunks;
        }
      }
    }
  }
  nn::arena_set_enabled(arena_was);
  util::set_global_threads(1);
  EXPECT_GT(worker_chunks, 0U) << "no sweep ever reached a worker lane";
}

// -- Concurrent evaluate --------------------------------------------------------

// Engine::evaluate is const and may run on several threads at once. A
// DAG-ConvGNN runs its fixed layer count whatever T is asked for, so T = 3
// on a 2-layer model takes the log-once warning path on both threads; the
// latch it sets must not race (run under -DDEEPGATE_SANITIZE_THREAD=ON).
TEST(EngineEvaluate, ConcurrentIgnoredIterationOverrideIsRaceFree) {
  std::vector<CircuitGraph> graphs;
  graphs.push_back(deepgate::prepare(data::gen_multiplier(3), 500, 1));
  graphs.push_back(deepgate::prepare(data::gen_squarer(4), 500, 2));

  deepgate::Options options;
  options.model = tiny_config();
  options.model.iterations = 2;
  options.spec.family = gnn::ModelFamily::kDagConv;
  options.spec.agg = gnn::AggKind::kConvSum;
  options.spec.use_skip = false;
  const deepgate::Engine engine(options);
  ASSERT_EQ(engine.model().effective_iterations(3), 2);

  double errors[2] = {0.0, 0.0};
  std::vector<std::thread> threads;
  for (double& err : errors) threads.emplace_back([&] { err = engine.evaluate(graphs, 3); });
  for (std::thread& t : threads) t.join();

  const double expected = engine.evaluate(graphs);
  for (const double err : errors)
    EXPECT_EQ(std::memcmp(&err, &expected, sizeof err), 0) << err << " vs " << expected;
}

}  // namespace
}  // namespace dg
