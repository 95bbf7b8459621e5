// The batched inference executor: the one path every inference caller runs.
//
// A request of graphs goes through four steps, each written once here:
//   1. zero-node graphs are skipped (nothing to forward or merge),
//   2. plan_node_batches_by_depth packs the rest into node-budgeted groups
//      of similar depth, and lanes claim them longest first (most node
//      rows, then deepest, then plan order),
//   3. Batch::merge turns each group into what one forward runs on — a solo
//      graph as itself, a multi-member group as its level-merged super-graph,
//   4. Batch::forward runs ONE Model::forward_outputs inside an
//      nn::ArenaScope, and each member reads its prediction column and
//      embedding rows back out of the batch.
//
// execute() drives all four, fanning groups across the thread pool;
// Engine::predict_probabilities / embeddings / infer_batch / evaluate call
// it. serve::Server forms its own windows, groups each with the same
// plan_node_batches_by_depth and calls the Batch steps directly, so it can
// wrap merge and forward in their own trace spans. Merged forwards
// are bit-exact per member, so every caller returns the same bits for a
// graph however it was batched.
#pragma once

#include "gnn/model_common.hpp"

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace dg::gnn {

/// Batching options of one executor call. The defaults live here, in exactly
/// one place; a caller that wants another packing (Engine's single-merge
/// calls, tests) sets the fields.
struct ServeOptions {
  std::size_t node_budget = 8192;///< nodes per merged super-graph; 0 = one
                                 ///< graph per forward (pre-batching fallback)
  std::size_t max_graphs = 64;   ///< member cap per merged super-graph
  int threads = 0;               ///< max pool lanes claiming groups
                                 ///< (longest first, off a shared counter);
                                 ///< 0 = DEEPGATE_THREADS, 1 = serial
};

/// One merge group on its way through a forward.
class Batch {
 public:
  Batch() = default;

  /// The merge step. `parts` must be non-empty, non-null graphs with nodes.
  /// A single graph runs as itself (no merge); several are level-merged
  /// with CircuitGraph::merge.
  static Batch merge(const std::vector<const CircuitGraph*>& parts);

  /// The forward step: ONE model forward over the group, inside an
  /// nn::ArenaScope so its small per-level buffers recycle call to call. The
  /// caller holds the nn::NoGradGuard. `iterations` as in
  /// Model::forward_outputs.
  void forward(const Model& model, int iterations = 0);

  /// Member i's N_i probabilities and N_i x d embedding rows, after
  /// forward(). Plain heap copies that outlive the batch and its arena.
  std::vector<float> prediction(std::size_t i) const;
  nn::Matrix embedding(std::size_t i) const;

 private:
  /// Member i's row range in the forward's outputs.
  GraphMember member(std::size_t i) const;

  const CircuitGraph* graph_ = nullptr;         ///< what forward() runs on
  std::unique_ptr<const CircuitGraph> merged_;  ///< owns *graph_ when merged
  ForwardOutputs out_;
};

/// Receives member `member` of `batch` for request position `index`. Called
/// exactly once per graph with nodes, possibly on a pool worker, so writes
/// to per-index slots need no locking. Zero-node graphs never reach the
/// sink: callers size their results up front and those slots stay empty.
using BatchSink = std::function<void(std::size_t index, const Batch& batch, std::size_t member)>;

/// Run `graphs` through the model: skip zero-node graphs, pack the rest with
/// plan_node_batches_by_depth(opts.node_budget, opts.max_graphs), merge each
/// group, forward it under a NoGradGuard and hand every member to `sink`.
/// Groups run longest first: most total node rows, ties to the greater merged
/// depth, then to plan position. Up to opts.threads pool lanes claim them in
/// that order off a shared counter; at one thread they run in that order on
/// the caller.
/// Throws std::invalid_argument on a null graph or one check_compatible
/// rejects, before any forward runs. Returns the number of forwards run.
std::size_t execute(const Model& model, const std::vector<const CircuitGraph*>& graphs,
                    const ServeOptions& opts, int iterations, const BatchSink& sink);

}  // namespace dg::gnn
