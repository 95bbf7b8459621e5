#include "core/deepgate.hpp"

#include "netlist/to_aig.hpp"
#include "nn/serialize.hpp"
#include "util/log.hpp"

#include <limits>

namespace deepgate {

CircuitGraph prepare(const dg::netlist::Netlist& nl, std::size_t patterns, std::uint64_t seed) {
  return prepare(dg::netlist::to_aig(nl), patterns, seed);
}

CircuitGraph prepare(const dg::aig::Aig& aig, std::size_t patterns, std::uint64_t seed) {
  return dg::data::graph_from_aig(aig, patterns, seed);
}

dg::data::Dataset prepare_dataset(const DatasetOptions& options) {
  return prepare_dataset(dg::data::default_dataset_config(options.scale, options.seed),
                         options.build);
}

dg::data::Dataset prepare_dataset(const dg::data::DatasetConfig& config,
                                  const dg::data::BuildOptions& build) {
  return dg::data::build_dataset(config, build);
}

Engine::Engine(const Options& options)
    : options_(options),
      model_(dg::gnn::make_model(options.spec, options.model)) {}

dg::gnn::TrainResult Engine::train(const std::vector<CircuitGraph>& train_set,
                                   const TrainConfig& cfg) {
  return dg::gnn::train(*model_, train_set, cfg);
}

dg::gnn::TrainResult Engine::train(dg::gnn::GraphStream& stream, const TrainConfig& cfg) {
  return dg::gnn::train_streaming(*model_, stream, cfg);
}

double Engine::evaluate(const std::vector<CircuitGraph>& test_set,
                        int iterations_override) const {
  if (iterations_override > 0) effective_iterations(iterations_override);  // log-once
  return dg::gnn::evaluate(*model_, test_set, {}, iterations_override);
}

namespace {

/// Direct Engine calls: the whole request in one merge (split only where
/// graphs cannot share one), on the calling thread.
dg::gnn::ServeOptions single_merge() {
  dg::gnn::ServeOptions opts;
  opts.node_budget = std::numeric_limits<std::size_t>::max();
  opts.max_graphs = std::numeric_limits<std::size_t>::max();
  opts.threads = 1;
  return opts;
}

}  // namespace

std::vector<float> Engine::predict_probabilities(const CircuitGraph& g) const {
  std::vector<float> out;
  dg::gnn::execute(*model_, {&g}, single_merge(), 0,
                   [&](std::size_t, const dg::gnn::Batch& batch, std::size_t member) {
                     out = batch.prediction(member);
                   });
  return out;
}

dg::nn::Matrix Engine::embeddings(const CircuitGraph& g) const {
  dg::nn::Matrix out;
  dg::gnn::execute(*model_, {&g}, single_merge(), 0,
                   [&](std::size_t, const dg::gnn::Batch& batch, std::size_t member) {
                     out = batch.embedding(member);
                   });
  return out;
}

BatchInference Engine::infer_batch(const std::vector<const CircuitGraph*>& batch) const {
  BatchInference out;
  out.probabilities.resize(batch.size());
  out.embeddings.resize(batch.size());
  dg::gnn::execute(*model_, batch, single_merge(), 0,
                   [&](std::size_t i, const dg::gnn::Batch& b, std::size_t member) {
                     out.probabilities[i] = b.prediction(member);
                     out.embeddings[i] = b.embedding(member);
                   });
  return out;
}

std::unique_ptr<dg::gnn::Model> Engine::clone_model() const { return model_->clone(); }

int Engine::effective_iterations(int requested) const {
  const int effective = model_->effective_iterations(requested);
  if (requested > 0 && effective != requested && !iterations_warned_.exchange(true)) {
    dg::util::log_warn(model_->name(), ": inference iteration override T=", requested,
                       " ignored by non-recurrent model; runs fixed ", effective,
                       " layer(s)");
  }
  return effective;
}

bool Engine::save(const std::string& path) const {
  const auto params = model_->named_params();
  return dg::nn::save_params(path, params);
}

bool Engine::load(const std::string& path) {
  auto params = model_->named_params();
  return dg::nn::load_params(path, params);
}

}  // namespace deepgate
