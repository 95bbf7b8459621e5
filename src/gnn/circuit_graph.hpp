// The model-facing circuit graph: a typed levelized DAG with per-level edge
// batches (the "topological batching" of Thost & Chen the paper uses for
// training speed) plus skip-connection batches for DeepGate's reconvergence
// handling.
//
// Built from either an AIG gate graph (3 node types: PI/AND/NOT) or a raw
// multi-gate netlist (9 types — the paper's "w/o transformation" ablation).
#pragma once

#include "aig/gate_graph.hpp"
#include "analysis/reconvergence.hpp"
#include "netlist/netlist.hpp"
#include "nn/matrix.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace dg::gnn {

/// A skip edge inside a level batch: its index in the batch's edge order
/// and its level difference D, whose Eq. (7) encoding the attention
/// aggregator adds to that edge's score.
struct SkipSlot {
  int edge = 0;
  int level_diff = 0;
};

/// Edges received by the nodes of one level, pre-sorted by source level so a
/// single row-concat of per-level gathers produces the edge-ordered batch.
struct LevelBatch {
  struct SrcGroup {
    int level = 0;           ///< level the sources live on
    std::vector<int> pos;    ///< row indices within that level's state tensor
  };
  std::vector<SrcGroup> groups;
  std::vector<int> seg;      ///< per edge: dst position within the level (0..B-1)
  std::vector<SkipSlot> skips;  ///< fwd_skip only: the skip edges, in edge order
  int num_edges = 0;

  /// Batched graphs only (else empty = update every row): per dst row, 1 if
  /// the row's member has edges in its OWN batch at this level. A member
  /// whose own level batch is empty skips the level when running alone (no
  /// GRU update), so the merged sweep must leave its rows untouched too —
  /// e.g. a shallow member's top level inside a deeper batch's reverse sweep.
  std::vector<std::uint8_t> update_rows;

  bool empty() const { return num_edges == 0; }
  bool masked() const { return !update_rows.empty(); }
};

/// One member of a level-merged super-graph built by CircuitGraph::merge().
/// Node ids [node_offset, node_offset + num_nodes) of the merged graph are
/// the member's nodes in their original order — the scatter map that splits
/// merged per-node outputs back out per graph.
struct GraphMember {
  int node_offset = 0;
  int num_nodes = 0;
};

struct CircuitGraph {
  /// Largest num_types and pe_L deserialize() accepts. The builders produce
  /// 3 (AIG) or 9 (raw netlist) types; finalize() allocates per type, so a
  /// stored num_types must not size that freely. pe_L sizes nothing here
  /// (it tags the graph for a model of the same Eq. (7) L); its bound is
  /// input validation.
  static constexpr int kMaxNumTypes = 64;
  static constexpr int kMaxPeL = 64;

  int num_nodes = 0;
  int num_types = 3;
  int num_levels = 0;
  int pe_L = 8;                             ///< Eq. (7) L the graph is built for
  std::vector<int> type_id;                 ///< per node, in [0, num_types)
  std::vector<int> level;                   ///< forward logic level per node
  std::vector<std::pair<int, int>> edges;   ///< directed (src, dst)
  std::vector<analysis::SkipEdge> skip_edges;
  std::vector<float> labels;                ///< simulated signal probabilities

  /// Structure-version counter, bumped by finalize() and by every applied
  /// delta_* edit (a rejected edit leaves it as it was).
  /// core::IncrementalSession keys its cached outputs on it. Not a defining
  /// field: excluded from serialize() and bit_equal().
  std::uint64_t generation = 0;

  /// Batch metadata — non-empty only for super-graphs built by merge().
  /// Because every node id is member-local id + node_offset, member m's rows
  /// of any N x d model output are the contiguous block
  /// [node_offset, node_offset + num_nodes), in the member's node order.
  std::vector<GraphMember> members;

  // Level layout.
  std::vector<std::vector<int>> nodes_at_level;
  std::vector<int> node_pos;     ///< node -> row within its level tensor

  // Per-level batches. fwd[L] feeds level L from predecessors (L >= 1);
  // fwd_skip additionally contains the skip edges, listed in its `skips`;
  // rev[L] feeds level L from successors (processed in decreasing L).
  std::vector<LevelBatch> fwd;
  std::vector<LevelBatch> fwd_skip;
  std::vector<LevelBatch> rev;

  // Node indices grouped by type (for the per-type regressor heads).
  std::vector<std::vector<int>> nodes_of_type;

  /// Compute the derived structures every DAG model reads: the level
  /// layout, the level batches with their skip lists, the masks of a batch
  /// and the per-type node lists. Quantities one model alone reads live
  /// with that model (GCN's undirected edges, the means' edge counts, the
  /// attention's Eq. (7) encodings). `pe_L` is stored as the graph's tag
  /// (see check_compatible). Must be called after
  /// type_id/level/edges/skip_edges are set.
  void finalize(int pe_L = 8);

  /// Build from an explicit AIG gate graph with simulated labels; detects
  /// reconvergences internally.
  static CircuitGraph from_gate_graph(const aig::GateGraph& g, const std::vector<double>& labels,
                                      int pe_L = 8);

  /// Build from a raw netlist (num_types = 9, one-hot over GateType).
  static CircuitGraph from_netlist(const netlist::Netlist& nl, const std::vector<double>& labels,
                                   int pe_L = 8);

  /// Disjoint-union batching: concatenate `parts` into one levelized
  /// super-graph whose level L holds every part's level-L nodes, so a single
  /// model forward covers all members. All parts must share num_types and
  /// pe_L (throws std::invalid_argument otherwise). Within each merged level
  /// the members' nodes stay contiguous and in member order, and each
  /// member's per-destination edge order is preserved, so a forward over the
  /// merged graph is bit-exact with each member running alone (models replay
  /// per-member h0 streams via `members`). merge({}) yields an empty graph.
  static CircuitGraph merge(const std::vector<const CircuitGraph*>& parts);

  bool is_batch() const { return !members.empty(); }

  // --- Delta updates -------------------------------------------------------
  //
  // In-place structural edits on a finalized, non-batch graph. Each op keeps
  // the defining fields exactly as a from-scratch build would produce them
  // (edges stay grouped by destination in fanin order — the canonical order
  // finalize() relies on for reproducible batch construction). A rewire
  // re-levelizes only its fan-out cone; every op then re-derives the level
  // layout and all batches with finalize(), which bumps `generation` once.
  // Every check runs before the first mutation: the ops throw
  // std::invalid_argument, leaving the graph and `generation` as they were,
  // on merged batches, unfinalized graphs, out-of-range ids, or (for rewire)
  // edits that would create a cycle.

  /// Append a node of `type` fed by `fanins` (existing ids; duplicates
  /// allowed, empty = new level-0 node). Returns the new node id
  /// (== old num_nodes).
  int delta_insert_node(int type, const std::vector<int>& fanins, float label = 0.5F);

  /// Remove node `v`. Only nodes without fanouts can be deleted (throws
  /// otherwise); skip edges touching `v` are dropped. Ids above `v` shift
  /// down by one, preserving order.
  void delta_delete_node(int v);

  /// Replace node `v`'s fanin list. Throws if any new fanin lies inside
  /// `v`'s fan-out cone (including `v` itself) — that would create a cycle.
  /// Skip-edge level_diffs are recomputed for moved endpoints; a skip edge
  /// whose diff drops below 1 no longer points strictly upward and is
  /// removed.
  void delta_rewire_node(int v, const std::vector<int>& fanins);

  /// Per-node fanin lists reconstructed from `edges` (canonical per-dst
  /// order). O(N + E).
  std::vector<std::vector<int>> fanin_lists() const;

  /// Per-node fanout counts. O(N + E).
  std::vector<int> fanout_counts() const;

  /// Batched graphs: member index of each row of nodes_at_level[L]. Relies
  /// on the merge invariant that nodes_at_level entries ascend and member
  /// node-id ranges are contiguous, so each member's rows form one block.
  std::vector<int> member_of_level_rows(int L) const;

  /// Append the defining fields (types, levels, edges, skip edges, labels,
  /// pe_L) to `out` in a portable little-endian layout. Derived structures
  /// are not stored; deserialize() rebuilds them via finalize(), which is
  /// deterministic, so a round trip is bit-exact including every level
  /// batch.
  void serialize(std::vector<std::uint8_t>& out) const;

  /// Parse one graph starting at `offset` (advanced past it on success) and
  /// finalize it. Returns false — leaving `g` unspecified — on truncation or
  /// any structural violation (ids out of range, bad levels, label count,
  /// num_types above kMaxNumTypes, pe_L above kMaxPeL).
  static bool deserialize(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                          CircuitGraph& g);
};

/// Bitwise equality of the defining fields (the determinism contract of the
/// dataset pipeline). Every derived structure, the skip lists included,
/// follows from them through the deterministic finalize().
bool bit_equal(const CircuitGraph& a, const CircuitGraph& b);

/// Copy member m's rows [node_offset, node_offset + num_nodes) out of a
/// merged per-node output matrix — the scatter half of merge().
nn::Matrix member_rows(const nn::Matrix& full, const GraphMember& m);

/// Same for an N x 1 prediction, as the member's per-node probabilities.
std::vector<float> member_column(const nn::Matrix& full, const GraphMember& m);

/// The one batch planner: gnn::execute and serve::Server group with it.
/// Packs `graphs` into merge groups whose total node count stays within
/// `node_budget` and whose member count stays within `max_graphs`, grouping
/// graphs of similar level depth so a merged batch wastes fewer masked tail
/// levels (a shallow member inside a deep batch sits idle for every level
/// above its own). Returns groups of indices into `graphs`. Deterministic:
/// indices are ordered by (num_types, pe_L) compatibility class, then depth,
/// then index, and packed greedily; node_budget == 0 gives singleton groups
/// and a lone over-budget graph gets a group of its own. Every index appears
/// in exactly one group.
std::vector<std::vector<std::size_t>> plan_node_batches_by_depth(
    const std::vector<const CircuitGraph*>& graphs, std::size_t node_budget,
    std::size_t max_graphs);

}  // namespace dg::gnn
