// Delta-update layer of CircuitGraph: every edit must leave the graph — both
// the defining fields and every derived structure — exactly as a from-scratch
// finalize() of the same fields would. A rewire re-levelizes only its fan-out
// cone before the ops' closing finalize(); a rejected edit must leave the
// graph and its generation exactly as they were.
#include "gnn/circuit_graph.hpp"

#include "aig/gate_graph.hpp"
#include "sim/probability.hpp"
#include "synth/mutate.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace dg::gnn {
namespace {

using namespace dg::aig;

CircuitGraph diamond_graph() {
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  const Lit z = make_lit(a.add_input(), false);
  const Lit n1 = a.add_and(x, y);
  const Lit n2 = a.add_and(x, z);
  a.add_output(a.add_and(n1, n2));
  const GateGraph g = to_gate_graph(a);
  const auto labels = sim::exact_gate_graph_probabilities(g);
  return CircuitGraph::from_gate_graph(g, labels);
}

/// From-scratch ground truth: rebuild every derived structure from the
/// defining fields alone.
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

void expect_batches_equal(const LevelBatch& a, const LevelBatch& b, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.num_edges, b.num_edges);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].level, b.groups[i].level);
    EXPECT_EQ(a.groups[i].pos, b.groups[i].pos);
  }
  EXPECT_EQ(a.seg, b.seg);
  ASSERT_EQ(a.skips.size(), b.skips.size());
  for (std::size_t i = 0; i < a.skips.size(); ++i) {
    EXPECT_EQ(a.skips[i].edge, b.skips[i].edge);
    EXPECT_EQ(a.skips[i].level_diff, b.skips[i].level_diff);
  }
  EXPECT_EQ(a.update_rows, b.update_rows);
}

/// Delta result == from-scratch build, down to every derived structure.
void expect_matches_rebuild(const CircuitGraph& g) {
  const CircuitGraph fresh = rebuild(g);
  ASSERT_TRUE(bit_equal(g, fresh));
  ASSERT_EQ(g.num_levels, fresh.num_levels);
  EXPECT_EQ(g.nodes_at_level, fresh.nodes_at_level);
  EXPECT_EQ(g.node_pos, fresh.node_pos);
  ASSERT_EQ(g.fwd.size(), fresh.fwd.size());
  for (std::size_t L = 0; L < g.fwd.size(); ++L) {
    const std::string at = "level " + std::to_string(L);
    expect_batches_equal(g.fwd[L], fresh.fwd[L], "fwd " + at);
    expect_batches_equal(g.fwd_skip[L], fresh.fwd_skip[L], "fwd_skip " + at);
    expect_batches_equal(g.rev[L], fresh.rev[L], "rev " + at);
  }
  EXPECT_EQ(g.nodes_of_type, fresh.nodes_of_type);
}

/// Independent levelization: level(v) = 0 for sources, else 1 + max fanin
/// level — computed by fixpoint relaxation, no topological assumptions.
void expect_levels_correct(const CircuitGraph& g) {
  std::vector<int> lv(static_cast<std::size_t>(g.num_nodes), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [src, dst] : g.edges) {
      const int want = lv[static_cast<std::size_t>(src)] + 1;
      if (lv[static_cast<std::size_t>(dst)] < want) {
        lv[static_cast<std::size_t>(dst)] = want;
        changed = true;
      }
    }
  }
  EXPECT_EQ(g.level, lv);
}

TEST(IncrementalGraph, InsertGateMatchesRebuild) {
  CircuitGraph g = diamond_graph();
  const std::uint64_t gen = g.generation;
  const int v = g.delta_insert_node(/*type=*/1, {0, g.num_nodes - 1});
  EXPECT_EQ(v, 6);
  EXPECT_EQ(g.num_nodes, 7);
  EXPECT_GT(g.generation, gen);
  expect_matches_rebuild(g);
  expect_levels_correct(g);
}

TEST(IncrementalGraph, InsertPrimaryInputMatchesRebuild) {
  CircuitGraph g = diamond_graph();
  const int v = g.delta_insert_node(/*type=*/0, {});
  EXPECT_EQ(g.level[static_cast<std::size_t>(v)], 0);
  expect_matches_rebuild(g);
  expect_levels_correct(g);
}

TEST(IncrementalGraph, DeleteSinkMatchesRebuild) {
  CircuitGraph g = diamond_graph();
  ASSERT_EQ(g.skip_edges.size(), 1U);  // reconvergence into the output AND
  g.delta_delete_node(g.num_nodes - 1);
  EXPECT_EQ(g.num_nodes, 5);
  EXPECT_TRUE(g.skip_edges.empty());  // its skip edge went with it
  expect_matches_rebuild(g);
  expect_levels_correct(g);
}

TEST(IncrementalGraph, DeleteDrivenNodeThrows) {
  CircuitGraph g = diamond_graph();
  const CircuitGraph before = g;
  EXPECT_THROW(g.delta_delete_node(0), std::invalid_argument);  // a PI drives ANDs
  EXPECT_THROW(g.delta_delete_node(-1), std::invalid_argument);
  EXPECT_THROW(g.delta_delete_node(g.num_nodes), std::invalid_argument);
  EXPECT_TRUE(bit_equal(g, before));  // rejected edits leave the graph as it was
  EXPECT_EQ(g.generation, before.generation);
}

TEST(IncrementalGraph, RewireMatchesRebuild) {
  CircuitGraph g = diamond_graph();
  // Move one mid AND onto different drivers; the output AND's level follows.
  g.delta_rewire_node(3, {1, 2});
  expect_matches_rebuild(g);
  expect_levels_correct(g);
}

TEST(IncrementalGraph, RewireConeCycleThrows) {
  CircuitGraph g = diamond_graph();
  const CircuitGraph before = g;
  // The output AND (5) is in node 3's fan-out cone; so is 3 itself.
  EXPECT_THROW(g.delta_rewire_node(3, {5}), std::invalid_argument);
  EXPECT_THROW(g.delta_rewire_node(3, {3}), std::invalid_argument);
  expect_matches_rebuild(g);  // failed edits must leave the graph untouched
  EXPECT_TRUE(bit_equal(g, before));
  EXPECT_EQ(g.generation, before.generation);
}

TEST(IncrementalGraph, RewireRecomputesSkipDiffAndDropsFlatEdges) {
  // 0,1 PIs; 2 = AND(0,1); 3 = NOT(2); 4 = AND(3,1); skip edge 2 -> 4.
  CircuitGraph g;
  g.num_nodes = 5;
  g.type_id = {0, 0, 1, 2, 1};
  g.level = {0, 0, 1, 2, 3};
  g.edges = {{0, 2}, {1, 2}, {2, 3}, {3, 4}, {1, 4}};
  g.skip_edges = {{2, 4, 2}};
  g.labels.assign(5, 0.5F);
  g.finalize();

  // Rewiring 4 onto its fanin's ancestor keeps a positive diff: recomputed.
  g.delta_rewire_node(4, {2, 1});
  ASSERT_EQ(g.skip_edges.size(), 1U);
  EXPECT_EQ(g.skip_edges[0].level_diff, 1);
  expect_matches_rebuild(g);
  expect_levels_correct(g);

  // Flattening 4 to the skip source's own level drops the edge entirely.
  g.delta_rewire_node(4, {0, 1});
  EXPECT_TRUE(g.skip_edges.empty());
  expect_matches_rebuild(g);
  expect_levels_correct(g);
}

TEST(IncrementalGraph, DeltaOpsRejectUnpreparedGraphs) {
  CircuitGraph raw;
  raw.num_nodes = 2;
  raw.type_id = {0, 0};
  raw.level = {0, 0};
  raw.labels = {0.5F, 0.5F};
  const CircuitGraph raw_before = raw;
  EXPECT_THROW(raw.delta_insert_node(0, {}), std::invalid_argument);  // not finalized
  EXPECT_TRUE(bit_equal(raw, raw_before));
  EXPECT_EQ(raw.generation, raw_before.generation);

  const CircuitGraph a = diamond_graph();
  const CircuitGraph b = diamond_graph();
  CircuitGraph merged = CircuitGraph::merge({&a, &b});
  const CircuitGraph merged_before = merged;
  EXPECT_THROW(merged.delta_insert_node(0, {}), std::invalid_argument);  // batch
  EXPECT_TRUE(bit_equal(merged, merged_before));
  EXPECT_EQ(merged.generation, merged_before.generation);

  CircuitGraph g = diamond_graph();
  const CircuitGraph before = g;
  EXPECT_THROW(g.delta_insert_node(0, {42}), std::invalid_argument);  // bad fanin
  EXPECT_THROW(g.delta_insert_node(3, {}), std::invalid_argument);    // bad type
  EXPECT_THROW(g.delta_rewire_node(7, {}), std::invalid_argument);    // bad node
  EXPECT_TRUE(bit_equal(g, before));
  EXPECT_EQ(g.generation, before.generation);
}

/// Random graph with skip edges — broader shapes than the AIG pipeline emits.
CircuitGraph random_graph(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  CircuitGraph g;
  g.num_nodes = n;
  g.num_types = 3;
  g.type_id.resize(static_cast<std::size_t>(n));
  g.level.resize(static_cast<std::size_t>(n));
  g.labels.assign(static_cast<std::size_t>(n), 0.5F);
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (v < 3 || rng.next_bool(0.2)) {
      g.type_id[vi] = 0;
      g.level[vi] = 0;
      continue;
    }
    const int arity = 1 + static_cast<int>(rng.next_below(2));
    g.type_id[vi] = arity == 1 ? 2 : 1;
    int max_level = -1;
    for (int k = 0; k < arity; ++k) {
      const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
      g.edges.emplace_back(src, v);
      max_level = std::max(max_level, g.level[static_cast<std::size_t>(src)]);
    }
    g.level[vi] = max_level + 1;
  }
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (g.level[vi] < 2 || !rng.next_bool(0.25)) continue;
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
    const int diff = g.level[vi] - g.level[static_cast<std::size_t>(src)];
    if (diff >= 2) g.skip_edges.push_back({src, v, diff});
  }
  g.finalize();
  return g;
}

TEST(IncrementalGraph, RandomMutationStreamMatchesRebuildEveryStep) {
  CircuitGraph g = random_graph(40, 11);
  util::Rng rng(12345);
  int applied = 0;
  for (int step = 0; step < 120; ++step) {
    synth::MutationContext ctx;
    ctx.num_nodes = g.num_nodes;
    ctx.num_types = g.num_types;
    ctx.type_id = g.type_id;
    ctx.level = g.level;
    ctx.fanout_count = g.fanout_counts();
    const synth::Mutation m = synth::random_mutation(ctx, rng);
    try {
      switch (m.kind) {
        case synth::Mutation::Kind::kInsert:
          g.delta_insert_node(m.type_id, m.fanins);
          break;
        case synth::Mutation::Kind::kDelete:
          g.delta_delete_node(m.node);
          break;
        case synth::Mutation::Kind::kRewire:
          g.delta_rewire_node(m.node, m.fanins);
          break;
      }
      ++applied;
    } catch (const std::invalid_argument&) {
      continue;  // cycle-creating rewire: skipped, graph must be untouched
    }
    expect_matches_rebuild(g);
    expect_levels_correct(g);
    if (HasFailure()) {
      ADD_FAILURE() << "first divergence at step " << step;
      break;
    }
  }
  EXPECT_GT(applied, 60);  // the stream must mostly stick
}

// Satellite: serialization of a mutated graph. The wire format stores only
// defining fields and deserialize() re-finalizes, so a post-delta graph must
// round-trip bit-exactly AND match the from-scratch build of its fields.
TEST(IncrementalGraph, MutatedGraphSerializesRoundTrip) {
  CircuitGraph g = diamond_graph();
  g.delta_insert_node(1, {0, 5});
  g.delta_rewire_node(3, {1, 2});
  g.delta_insert_node(0, {});
  g.delta_delete_node(6);

  std::vector<std::uint8_t> bytes;
  g.serialize(bytes);
  CircuitGraph round;
  std::size_t offset = 0;
  ASSERT_TRUE(CircuitGraph::deserialize(bytes.data(), bytes.size(), offset, round));
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(bit_equal(round, g));
  EXPECT_TRUE(bit_equal(round, rebuild(g)));
}

/// Serialize a hand-built graph's defining fields and parse them back.
bool deserializes(const CircuitGraph& g) {
  std::vector<std::uint8_t> bytes;
  g.serialize(bytes);
  CircuitGraph out;
  std::size_t offset = 0;
  return CircuitGraph::deserialize(bytes.data(), bytes.size(), offset, out);
}

/// The chain 0 -> 1 -> 2 on levels 0, 1, 2, plus `skip` skip edges.
CircuitGraph chain_graph(std::vector<analysis::SkipEdge> skip) {
  CircuitGraph g;
  g.num_nodes = 3;
  g.type_id = {0, 1, 2};
  g.level = {0, 1, 2};
  g.edges = {{0, 1}, {1, 2}};
  g.skip_edges = std::move(skip);
  g.labels = {0.5F, 0.25F, 0.75F};
  return g;
}

// Hostile bytes: an edge that does not rise in level is refused. With
// 0 -> 1, 2 -> 1 and 1 -> 2 the graph is a cycle.
TEST(IncrementalGraph, DeserializeRejectsEdgeNotRisingInLevel) {
  CircuitGraph cycle = chain_graph({});
  cycle.level = {0, 1, 0};
  cycle.edges = {{0, 1}, {2, 1}, {1, 2}};
  EXPECT_FALSE(deserializes(cycle));

  CircuitGraph flat = chain_graph({});
  flat.level = {0, 1, 1};  // 1 -> 2 stays on level 1
  EXPECT_FALSE(deserializes(flat));
}

// A skip edge must carry exactly level[dst] - level[src], which must be >= 1.
TEST(IncrementalGraph, DeserializeRejectsSkipEdgeWithWrongLevelDiff) {
  EXPECT_TRUE(deserializes(chain_graph({{0, 2, 2}})));
  EXPECT_FALSE(deserializes(chain_graph({{0, 2, 3}})));
  EXPECT_FALSE(deserializes(chain_graph({{0, 2, 1}})));
  EXPECT_FALSE(deserializes(chain_graph({{1, 1, 0}})));
}

// num_types sizes finalize()'s per-type node lists, so a stored count is
// bounded (CircuitGraph::kMaxNumTypes = 64; the builders write 3 or 9). A
// 28-byte record of no nodes and four million types used to be accepted.
TEST(IncrementalGraph, DeserializeRejectsNumTypesAboveBound) {
  CircuitGraph empty;
  empty.num_types = 4'000'000;
  EXPECT_FALSE(deserializes(empty));
  CircuitGraph g = chain_graph({});
  g.num_types = 64;
  EXPECT_TRUE(deserializes(g));
  g.num_types = 65;
  EXPECT_FALSE(deserializes(g));
}

TEST(IncrementalGraph, GenerationCountsEveryEdit) {
  CircuitGraph g = diamond_graph();
  const std::uint64_t g0 = g.generation;
  g.delta_insert_node(0, {});
  g.delta_rewire_node(3, {1, 2});
  g.delta_delete_node(g.num_nodes - 1);
  EXPECT_EQ(g.generation, g0 + 3);
}

}  // namespace
}  // namespace dg::gnn
