// Incremental inference session: a mutating circuit bound to one Engine.
//
//   deepgate::IncrementalSession session(engine, std::move(graph));
//   auto probs = engine.predict_incremental(session);    // full forward, memoized
//   session.rewire_node(v, {a, b});                      // delta edit, cone-local
//   probs = engine.predict_incremental(session);         // re-propagates the cone only
//   auto emb = engine.embeddings_incremental(session);   // memo hit: zero propagation
//
// The session owns the graph (edit it ONLY through the session's mutation
// methods) plus the model-family memo of the last query's per-level states.
// Outputs are bitwise identical to rebuilding the graph from scratch and
// calling predict_probabilities/embeddings on it. See gnn/incremental.hpp
// for the memo/knob semantics (DEEPGATE_INCREMENTAL_MEMO[_MB]).
#pragma once

#include "core/deepgate.hpp"

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
  /// Each delegates to the CircuitGraph delta op (same validation/throw
  /// contract) and maintains the node-identity map the next incremental
  /// query diffs against.
  int insert_node(int type, const std::vector<int>& fanins, float label = 0.5F);
  void delete_node(int v);
  void rewire_node(int v, const std::vector<int>& fanins);

  /// What the most recent predict/embeddings_incremental call on this
  /// session actually did (memo hit / partial / full, dirty row count).
  const dg::gnn::IncrementalRunStats& last_stats() const { return stats_; }

 private:
  friend class Engine;

  const Engine* engine_;
  CircuitGraph graph_;
  std::unique_ptr<dg::gnn::IncrementalState> state_;
  /// old_of_new_[v] = id of current node v at the last-queried generation
  /// (-1 = created since). Composed across edits, reset to identity after
  /// every query (the memo snapshot then IS the current generation).
  std::vector<int> old_of_new_;
  dg::gnn::IncrementalRunStats stats_;
};

}  // namespace deepgate
