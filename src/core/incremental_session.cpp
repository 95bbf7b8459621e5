#include "core/incremental_session.hpp"

#include "nn/arena.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

namespace deepgate {

IncrementalSession::IncrementalSession(const Engine& engine, CircuitGraph graph)
    : engine_(&engine), graph_(std::move(graph)) {
  if (graph_.num_nodes == 0)
    throw std::invalid_argument("IncrementalSession: empty graph");
  if (graph_.is_batch())
    throw std::invalid_argument("IncrementalSession: merged batch graphs not supported");
  if (graph_.node_pos.size() != static_cast<std::size_t>(graph_.num_nodes))
    throw std::invalid_argument("IncrementalSession: graph must be finalized");
  dg::gnn::check_compatible(engine.model().config(), graph_);
  state_ = engine.model().make_incremental_state();
  old_of_new_.resize(static_cast<std::size_t>(graph_.num_nodes));
  std::iota(old_of_new_.begin(), old_of_new_.end(), 0);
}

int IncrementalSession::insert_node(int type, const std::vector<int>& fanins, float label) {
  const int v = graph_.delta_insert_node(type, fanins, label);
  old_of_new_.push_back(-1);
  return v;
}

void IncrementalSession::delete_node(int v) {
  graph_.delta_delete_node(v);  // throws (and leaves the map intact) on fanouts
  old_of_new_.erase(old_of_new_.begin() + v);
}

void IncrementalSession::rewire_node(int v, const std::vector<int>& fanins) {
  graph_.delta_rewire_node(v, fanins);  // ids are stable under rewire
}

dg::gnn::ForwardOutputs Engine::forward_incremental(IncrementalSession& session,
                                                    const char* caller) const {
  if (session.engine_ != this)
    throw std::invalid_argument(std::string(caller) + ": session bound to a different engine");
  dg::nn::NoGradGuard no_grad;
  dg::gnn::ForwardOutputs out;
  {
    dg::nn::ArenaScope arena;
    out = model_->forward_incremental(session.graph_, session.state_.get(),
                                      session.old_of_new_, &session.stats_);
  }
  // The memo snapshot now IS the current generation: identity map.
  std::iota(session.old_of_new_.begin(), session.old_of_new_.end(), 0);
  return out;
}

// Both copy outside the arena scope: the caller keeps the result indefinitely.
std::vector<float> Engine::predict_incremental(IncrementalSession& session) const {
  const dg::gnn::ForwardOutputs out = forward_incremental(session, "predict_incremental");
  return dg::gnn::member_column(out.prediction.value(), {0, out.prediction.value().rows(), 0});
}

dg::nn::Matrix Engine::embeddings_incremental(IncrementalSession& session) const {
  return forward_incremental(session, "embeddings_incremental").embedding.value();
}

}  // namespace deepgate
