// Incremental inference session: a mutating circuit bound to one Engine.
//
//   deepgate::IncrementalSession session(engine, std::move(graph));
//   auto probs = engine.predict_incremental(session);    // one full forward
//   session.rewire_node(v, {a, b});                      // delta edit
//   probs = engine.predict_incremental(session);         // one full forward
//   auto emb = engine.embeddings_incremental(session);   // memo hit: zero propagation
//
// The session owns the graph (edit it ONLY through the session's mutation
// methods, which are the CircuitGraph delta ops) and the outputs of its last
// query, keyed by CircuitGraph::generation. A query at the generation those
// outputs belong to replays them; any other query runs one full forward
// through gnn::execute, exactly as predict_probabilities does, so outputs are
// bitwise identical to rebuilding the graph from scratch and calling
// predict_probabilities/embeddings on it.
//
// Why no query re-propagates only an edit's cone: DeepGate and DAG-RecGNN
// run a forward and a reversed layer in every one of their T iterations, so
// one edit's influence reaches the whole connected component.
//
// Thread affinity: a session serves one client's edit stream from one thread
// at a time, so it carries no mutex — the same contract as ShardStream.
#pragma once

#include "core/deepgate.hpp"

#include <cstdint>
#include <optional>

namespace dg::gnn {

/// What the most recent predict/embeddings_incremental call on a session
/// did. `partial` and `dirty_nodes` are kept for the benchmark harness,
/// which reads them; every query is a memo hit or one full forward.
struct IncrementalRunStats {
  bool memo_hit = false;  ///< unchanged generation: outputs replayed, zero propagation
  bool partial = false;   ///< always false: no cone-limited path exists
  int dirty_nodes = 0;    ///< always 0
};

}  // namespace dg::gnn

namespace deepgate {

class IncrementalSession {
 public:
  /// Takes the starting graph by value. It must be finalized, non-empty,
  /// not a merged batch and built for the engine's model
  /// (gnn::check_compatible); throws std::invalid_argument otherwise.
  IncrementalSession(const Engine& engine, CircuitGraph graph);

  IncrementalSession(IncrementalSession&&) = default;
  IncrementalSession& operator=(IncrementalSession&&) = default;

  const CircuitGraph& graph() const { return graph_; }

  /// Delta mutations — the only sanctioned way to edit the session's graph.
  /// Each is the CircuitGraph delta op, with its validation/throw contract:
  /// an applied edit bumps the generation, a rejected one leaves the graph
  /// and its generation as they were.
  int insert_node(int type, const std::vector<int>& fanins, float label = 0.5F) {
    return graph_.delta_insert_node(type, fanins, label);
  }
  void delete_node(int v) { graph_.delta_delete_node(v); }
  void rewire_node(int v, const std::vector<int>& fanins) { graph_.delta_rewire_node(v, fanins); }

  const dg::gnn::IncrementalRunStats& last_stats() const { return stats_; }

 private:
  friend class Engine;

  /// Bring the cached outputs up to the graph's generation: replay them when
  /// they already belong to it, else run one forward through
  /// Engine::infer_batch. Throws std::invalid_argument, naming `caller`,
  /// when `engine` is not the session's engine.
  void refresh(const Engine& engine, const char* caller);

  const Engine* engine_;
  CircuitGraph graph_;
  std::optional<std::uint64_t> outputs_generation_;  ///< generation of the outputs below
  std::vector<float> prediction_;
  dg::nn::Matrix embedding_;
  dg::gnn::IncrementalRunStats stats_;
};

}  // namespace deepgate
