#include "core/incremental_session.hpp"

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
}

void IncrementalSession::refresh(const Engine& engine, const char* caller) {
  if (&engine != engine_)
    throw std::invalid_argument(std::string(caller) + ": session bound to a different engine");
  static dg::obs::Counter& hits = dg::obs::counter("gnn.memo.hits");
  static dg::obs::Counter& misses = dg::obs::counter("gnn.memo.misses");
  stats_ = {};
  if (outputs_generation_ == graph_.generation) {
    stats_.memo_hit = true;
    hits.add();
    return;
  }
  misses.add();
  BatchInference out = engine.infer_batch({&graph_});
  prediction_ = std::move(out.probabilities[0]);
  embedding_ = std::move(out.embeddings[0]);
  outputs_generation_ = graph_.generation;
}

std::vector<float> Engine::predict_incremental(IncrementalSession& session) const {
  session.refresh(*this, "predict_incremental");
  return session.prediction_;
}

dg::nn::Matrix Engine::embeddings_incremental(IncrementalSession& session) const {
  session.refresh(*this, "embeddings_incremental");
  return session.embedding_;
}

}  // namespace deepgate
