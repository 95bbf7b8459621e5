#include "gnn/circuit_graph.hpp"

#include "data/generators_small.hpp"
#include "netlist/to_aig.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "util/rng.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include <set>

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

TEST(CircuitGraph, BasicShape) {
  const CircuitGraph g = diamond_graph();
  EXPECT_EQ(g.num_nodes, 6);
  EXPECT_EQ(g.num_types, 3);
  EXPECT_EQ(g.num_levels, 3);
  EXPECT_EQ(g.edges.size(), 6U);  // three 2-input ANDs
  EXPECT_EQ(g.labels.size(), 6U);
}

TEST(CircuitGraph, SkipEdgesDetected) {
  const CircuitGraph g = diamond_graph();
  ASSERT_EQ(g.skip_edges.size(), 1U);
  EXPECT_EQ(g.skip_edges[0].level_diff, 2);
}

TEST(CircuitGraph, LevelLayoutConsistent) {
  const CircuitGraph g = diamond_graph();
  // Every node appears exactly once across level buckets at its own level.
  std::set<int> seen;
  for (int L = 0; L < g.num_levels; ++L) {
    for (int v : g.nodes_at_level[static_cast<std::size_t>(L)]) {
      EXPECT_EQ(g.level[static_cast<std::size_t>(v)], L);
      EXPECT_TRUE(seen.insert(v).second);
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), g.num_nodes);
  // node_pos indexes each node's row within its level.
  for (std::size_t v = 0; v < static_cast<std::size_t>(g.num_nodes); ++v) {
    const auto& nodes = g.nodes_at_level[static_cast<std::size_t>(g.level[v])];
    EXPECT_EQ(nodes[static_cast<std::size_t>(g.node_pos[v])], static_cast<int>(v));
  }
}

TEST(CircuitGraph, ForwardBatchesCoverAllEdges) {
  const CircuitGraph g = diamond_graph();
  std::size_t batched = 0;
  for (const auto& batch : g.fwd) batched += static_cast<std::size_t>(batch.num_edges);
  EXPECT_EQ(batched, g.edges.size());
  // Skip batches additionally include the skip edges.
  std::size_t batched_skip = 0;
  for (const auto& batch : g.fwd_skip) batched_skip += static_cast<std::size_t>(batch.num_edges);
  EXPECT_EQ(batched_skip, g.edges.size() + g.skip_edges.size());
}

TEST(CircuitGraph, ReverseBatchesMirrorForward) {
  const CircuitGraph g = diamond_graph();
  std::size_t rev_edges = 0;
  for (const auto& batch : g.rev) rev_edges += static_cast<std::size_t>(batch.num_edges);
  EXPECT_EQ(rev_edges, g.edges.size());
}

TEST(CircuitGraph, SegmentsIndexLevelNodes) {
  const CircuitGraph g = diamond_graph();
  for (int L = 0; L < g.num_levels; ++L) {
    const auto& batch = g.fwd[static_cast<std::size_t>(L)];
    const int num_dst = static_cast<int>(g.nodes_at_level[static_cast<std::size_t>(L)].size());
    for (int s : batch.seg) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, num_dst);
    }
  }
}

TEST(CircuitGraph, SourceGroupsAreBelowDstLevelInForward) {
  const CircuitGraph g = diamond_graph();
  for (int L = 1; L < g.num_levels; ++L) {
    for (const auto& group : g.fwd[static_cast<std::size_t>(L)].groups)
      EXPECT_LT(group.level, L);
  }
}

TEST(CircuitGraph, SegmentsCountIndegree) {
  const CircuitGraph g = diamond_graph();
  // The level-2 node (the top AND) has 2 fanins in fwd, and the skip edge
  // makes 3 in fwd_skip: the counts the mean aggregators divide by.
  EXPECT_EQ(g.fwd[2].seg, (std::vector<int>{0, 0}));
  EXPECT_EQ(g.fwd_skip[2].seg, (std::vector<int>{0, 0, 0}));
}

TEST(CircuitGraph, PeRowsOnlyForSkipEdges) {
  const CircuitGraph g = diamond_graph();
  ASSERT_EQ(g.skip_edges.size(), 1U);
  const auto& batch = g.fwd_skip[2];
  ASSERT_EQ(batch.num_edges, 3);  // 2 normal + 1 skip
  // The skip edge x -> top comes from level 0, so the source-level sort puts
  // it ahead of the two level-1 fanins.
  ASSERT_EQ(batch.skips.size(), 1U);
  EXPECT_EQ(batch.skips[0].edge, 0);
  EXPECT_EQ(batch.skips[0].level_diff, g.skip_edges[0].level_diff);
  EXPECT_EQ(batch.skips[0].level_diff, 2);
  for (std::size_t L = 0; L < g.fwd.size(); ++L) {
    EXPECT_TRUE(g.fwd[L].skips.empty()) << "fwd " << L;
    EXPECT_TRUE(g.rev[L].skips.empty()) << "rev " << L;
  }
}

TEST(CircuitGraph, NodesOfTypePartition) {
  const CircuitGraph g = diamond_graph();
  std::size_t total = 0;
  for (const auto& nodes : g.nodes_of_type) total += nodes.size();
  EXPECT_EQ(static_cast<int>(total), g.num_nodes);
  EXPECT_EQ(g.nodes_of_type[0].size(), 3U);  // PIs
  EXPECT_EQ(g.nodes_of_type[1].size(), 3U);  // ANDs
  EXPECT_EQ(g.nodes_of_type[2].size(), 0U);  // no NOTs in the diamond
}

TEST(CircuitGraph, FromNetlistUsesNineTypes) {
  util::Rng rng(2);
  const netlist::Netlist nl = data::gen_itc_like(rng);
  const auto labels = sim::netlist_probabilities(nl, 2000, 3);
  const CircuitGraph g = CircuitGraph::from_netlist(nl, labels);
  EXPECT_EQ(g.num_types, 9);
  EXPECT_EQ(g.num_nodes, static_cast<int>(nl.size()));
  EXPECT_TRUE(g.skip_edges.empty());
  // Multi-input gates contribute >2 edges.
  EXPECT_GE(g.edges.size(), nl.size());
}

TEST(CircuitGraph, GeneratedFamiliesFinalizeCleanly) {
  util::Rng rng(3);
  for (const auto& family : data::family_names()) {
    const Aig a = synth::optimize(netlist::to_aig(data::generate_family(family, rng)));
    const GateGraph gg = to_gate_graph(a);
    const auto labels = sim::gate_graph_probabilities(gg, 2000, 7);
    const CircuitGraph g = CircuitGraph::from_gate_graph(gg, labels);
    EXPECT_EQ(g.num_nodes, static_cast<int>(gg.size()));
    std::size_t fwd_total = 0;
    for (const auto& b : g.fwd) fwd_total += static_cast<std::size_t>(b.num_edges);
    EXPECT_EQ(fwd_total, g.edges.size());
  }
}

}  // namespace
}  // namespace dg::gnn
