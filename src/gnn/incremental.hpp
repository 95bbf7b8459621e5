// Cone-limited incremental inference on mutating circuits.
//
// The level-by-level propagation every DAG family runs means an edit's
// influence on the forward state is confined to the fan-out cone of the
// touched nodes. This module memoizes the per-level states after every sweep
// of a query, keyed by CircuitGraph::generation, and re-propagates only the
// rows whose inputs changed on the next query; every other row is copied
// bitwise out of the memo. The machinery is shared by all DirectedLayer
// families (DeepGate, DAG-RecGNN, DAG-ConvGNN, custom); the GCN family keeps
// its own whole-graph variant in gcn.cpp on top of the same snapshot/seed
// helpers.
//
// Identity across edits is positional: node v of the current graph
// corresponds to node old_of_new[v] of the memoized generation (-1 = new
// node). core::IncrementalSession maintains that map across its delta ops.
//
// Knobs: DEEPGATE_INCREMENTAL_MEMO=off disables memoization entirely (every
// query is a full forward); DEEPGATE_INCREMENTAL_MEMO_MB caps the estimated
// checkpoint footprint per session (default 512 MiB) — an over-cap graph
// falls back to full forwards but still caches the outputs, so an unchanged
// re-query (the embed-then-predict sequence) never pays a second
// propagation.
//
// Thread affinity (why LevelMemo carries no util::Mutex): a LevelMemo is
// owned by one core::IncrementalSession, and a session serves one client's
// edit stream from one thread at a time — the same contract as ShardStream.
// The only process-wide state here is the memo on/off override, which is a
// relaxed atomic. Cross-session sharing would need a lock AND a story for
// generation counters; it is deliberately out of contract.
#pragma once

#include "gnn/model_common.hpp"

namespace dg::gnn {

/// Memoization switch: DEEPGATE_INCREMENTAL_MEMO (default on), overridable
/// programmatically for tests and benches.
bool incremental_memo_enabled();
void incremental_memo_set_enabled(bool on);
void incremental_memo_clear_override();

/// DEEPGATE_INCREMENTAL_MEMO_MB (default 512).
double incremental_memo_cap_mb();

/// Structural snapshot of one graph generation, indexed by node id at
/// snapshot time — everything the dirty-seed diff needs to decide whether a
/// surviving node's forward inputs changed.
struct GraphSnapshot {
  std::uint64_t generation = 0;
  int num_nodes = 0;
  int num_levels = 0;
  std::vector<int> level, pos, type;
  std::vector<std::vector<int>> fanins;                       ///< canonical per-dst order
  std::vector<std::vector<int>> fanouts;                      ///< canonical edge order
  std::vector<std::vector<std::pair<int, int>>> skip_fanins;  ///< (src, level_diff) per dst
  // Per-level batch-emptiness flags: an empty batch carries entry states
  // through a level, a non-empty one GRU-updates every row — so a flag flip
  // changes a node's update pattern even when its own edges are untouched.
  std::vector<std::uint8_t> fwd_nonempty, fwd_skip_nonempty, rev_nonempty;

  void capture(const CircuitGraph& g);
};

/// Which structural differences make a node dirty. Layered families track
/// layout (levels/positions drive both batch membership and the random-h0
/// cells) and, when they run reversed sweeps, fanouts; the undirected GCN
/// tracks fanins+fanouts but no layout.
struct DirtySeedOptions {
  bool track_layout = true;
  bool track_reverse = true;
};

/// Per-node dirty seeds: nodes whose h0 or per-level update inputs differ
/// from the memoized generation. Conservative in the safe direction only.
std::vector<std::uint8_t> dirty_seeds(const CircuitGraph& g, const GraphSnapshot& snap,
                                      const std::vector<int>& old_of_new,
                                      const DirtySeedOptions& opts);

/// Memoized per-level states of one query: checkpoints[0] is h0,
/// checkpoints[s + 1] the per-level states after sweep s, all in the
/// snapshot generation's layout. `has_checkpoints` is false when the
/// estimated footprint exceeded the memo cap — outputs are still cached so
/// unchanged re-queries stay free.
struct LevelMemo {
  bool valid = false;
  bool has_checkpoints = false;
  GraphSnapshot snap;
  std::vector<std::vector<nn::Matrix>> checkpoints;
  nn::Matrix prediction;  ///< N x 1
  nn::Matrix embedding;   ///< N x d
};

/// The IncrementalState of every DirectedLayer family.
class LayeredIncrementalState final : public IncrementalState {
 public:
  LevelMemo memo;
};

/// The one level-loop forward of every DirectedLayer family: h0, the
/// `sweeps` in execution order (e.g. [fwd, rev] x T for the recurrent models,
/// the stacked layers for DAG-ConvGNN), then the regressor. With `memo` set
/// it also captures per-sweep checkpoints for later cone-limited re-queries
/// (no-grad only); without one it is the plain forward behind
/// Model::forward_outputs, training tape included.
ForwardOutputs run_layered_forward(const CircuitGraph& g,
                                   const std::vector<const DirectedLayer*>& sweeps,
                                   const Regressor& regressor, const ModelConfig& cfg,
                                   LevelMemo* memo = nullptr,
                                   IncrementalRunStats* stats = nullptr);

/// Shared forward_incremental implementation for models whose propagation is
/// a sequence of DirectedLayer sweeps over per-level states. `sweeps` lists
/// the layers in execution order (e.g. [fwd, rev] x T for the recurrent
/// models, the stacked layers for DAG-ConvGNN). Must run under
/// nn::NoGradGuard; outputs are bitwise identical to the model's
/// forward_outputs(g).
ForwardOutputs run_layered_incremental(const CircuitGraph& g,
                                       const std::vector<const DirectedLayer*>& sweeps,
                                       const Regressor& regressor, const ModelConfig& cfg,
                                       IncrementalState* state,
                                       const std::vector<int>& old_of_new,
                                       IncrementalRunStats* stats);

}  // namespace dg::gnn
