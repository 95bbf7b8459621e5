#include "gnn/trainer.hpp"

#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

namespace dg::gnn {
namespace {

/// One graph's contribution: forward, batch-scaled L1, backward. Gradients
/// land on whichever model's parameters `model` owns. Returns the unscaled
/// loss. Forward is seeded from the model config alone (h0 draws a fresh
/// child stream per forward), so the result does not depend on which
/// worker processes the graph.
double forward_backward(const Model& model, const CircuitGraph& g, int batch_circuits) {
  const nn::Tensor pred = model.forward_outputs(g).prediction;
  const nn::Matrix target =
      nn::Matrix::from_vector(g.num_nodes, 1, std::vector<float>(g.labels));
  // Scale so one optimizer step sees the mean loss over the batch.
  const nn::Tensor loss =
      nn::scale(nn::l1_loss(pred, target), 1.0F / static_cast<float>(batch_circuits));
  loss.backward();
  return static_cast<double>(loss.item()) * batch_circuits;
}

/// One reshuffled pass over `graphs` in `order`: forward_backward per graph,
/// and a clipped optimizer step every `batch_circuits` graphs and after the
/// last one, so a step never straddles two passes. Each graph's unscaled loss
/// is added to `loss` in visit order.
void train_pass(const Model& model, const std::vector<CircuitGraph>& graphs,
                std::vector<int>& order, util::Rng& rng, nn::Adam& opt, const TrainConfig& cfg,
                double& loss) {
  rng.shuffle(order);
  int in_batch = 0;
  opt.zero_grad();
  for (std::size_t k = 0; k < order.size(); ++k) {
    loss += forward_backward(model, graphs[static_cast<std::size_t>(order[k])],
                             cfg.batch_circuits);
    ++in_batch;
    if (in_batch == cfg.batch_circuits || k + 1 == order.size()) {
      opt.clip_grad_norm(cfg.clip_norm);
      opt.step();
      opt.zero_grad();
      in_batch = 0;
    }
  }
}

/// Sequential path — byte-for-byte the original single-threaded trainer.
TrainResult train_sequential(Model& model, const std::vector<CircuitGraph>& train_set,
                             const TrainConfig& cfg) {
  TrainResult result;
  util::Timer timer;
  nn::Adam opt(nn::param_tensors(model.named_params()), cfg.lr);
  util::Rng rng(cfg.seed);

  std::vector<int> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    double epoch_loss = 0.0;
    train_pass(model, train_set, order, rng, opt, cfg, epoch_loss);
    epoch_loss /= static_cast<double>(train_set.size());
    result.epoch_loss.push_back(epoch_loss);
    if (cfg.verbose)
      util::log_info(model.name(), " epoch ", epoch + 1, "/", cfg.epochs, " L1=",
                     epoch_loss);
  }
  result.seconds = timer.seconds();
  return result;
}

/// Data-parallel path: the batch's circuits are split into `workers`
/// contiguous slices; worker w accumulates gradients on replica w. After the
/// barrier the replica gradients are reduced into the master in replica
/// order — a fixed reduction order, so results depend on the worker count
/// but never on thread scheduling.
TrainResult train_parallel(Model& model, const std::vector<CircuitGraph>& train_set,
                           const TrainConfig& cfg, int workers) {
  TrainResult result;
  result.threads_used = workers;
  util::Timer timer;

  nn::NamedParams master_named = model.named_params();
  nn::Adam opt(nn::param_tensors(master_named), cfg.lr);
  util::Rng rng(cfg.seed);

  std::vector<std::unique_ptr<Model>> replicas;
  std::vector<nn::NamedParams> replica_named;
  replicas.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    replicas.push_back(model.clone());
    replica_named.push_back(replicas.back()->named_params());
  }

  util::ThreadPool& pool = util::global_pool();

  std::vector<int> order(train_set.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> graph_loss(train_set.size(), 0.0);

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    opt.zero_grad();
    for (std::size_t batch_start = 0; batch_start < order.size();
         batch_start += static_cast<std::size_t>(cfg.batch_circuits)) {
      const std::size_t batch_end = std::min(
          order.size(), batch_start + static_cast<std::size_t>(cfg.batch_circuits));
      const std::int64_t batch_len =
          static_cast<std::int64_t>(batch_end - batch_start);

      // Each replica starts the batch with the master's current weights.
      for (int w = 0; w < workers; ++w)
        copy_params(master_named, replica_named[static_cast<std::size_t>(w)]);

      util::parallel_for_chunked(
          pool, batch_len, workers, [&](int w, std::int64_t lo, std::int64_t hi) {
            for (std::int64_t j = lo; j < hi; ++j) {
              const std::size_t k = batch_start + static_cast<std::size_t>(j);
              const CircuitGraph& g = train_set[static_cast<std::size_t>(order[k])];
              graph_loss[k] = forward_backward(*replicas[w], g, cfg.batch_circuits);
            }
          });

      // Deterministic reduction: replica 0, then 1, ... into the master.
      for (int w = 0; w < workers; ++w) {
        for (std::size_t i = 0; i < master_named.size(); ++i) {
          nn::Tensor& rp = replica_named[static_cast<std::size_t>(w)][i].second;
          if (!rp.has_grad()) continue;
          master_named[i].second.node()->accum_grad(rp.grad());
          rp.zero_grad();
        }
      }

      // Summed in batch order, matching the sequential loop's accumulation.
      for (std::size_t k = batch_start; k < batch_end; ++k) epoch_loss += graph_loss[k];

      opt.clip_grad_norm(cfg.clip_norm);
      opt.step();
      opt.zero_grad();
    }
    epoch_loss /= static_cast<double>(train_set.size());
    result.epoch_loss.push_back(epoch_loss);
    if (cfg.verbose)
      util::log_info(model.name(), " epoch ", epoch + 1, "/", cfg.epochs, " L1=",
                     epoch_loss, " (", workers, " workers)");
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace

TrainResult train(Model& model, const std::vector<CircuitGraph>& train_set,
                  const TrainConfig& cfg_in) {
  if (train_set.empty() || cfg_in.epochs <= 0) return TrainResult{};
  TrainConfig cfg = cfg_in;
  cfg.batch_circuits = std::max(1, cfg.batch_circuits);
  const int requested = cfg.threads > 0 ? cfg.threads : util::default_num_threads();
  // More workers than circuits per batch would only clone idle replicas;
  // dropping them leaves the gradient reduction order of the active ones —
  // and therefore the result — unchanged.
  const int workers = static_cast<int>(std::min<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(std::max(1, requested)),
                            static_cast<std::size_t>(cfg.batch_circuits)),
      train_set.size()));
  if (workers == 1) return train_sequential(model, train_set, cfg);
  return train_parallel(model, train_set, cfg, workers);
}

TrainResult train_streaming(Model& model, GraphStream& stream, const TrainConfig& cfg_in) {
  TrainResult result;
  if (cfg_in.epochs <= 0) return result;
  TrainConfig cfg = cfg_in;
  cfg.batch_circuits = std::max(1, cfg.batch_circuits);

  util::Timer timer;
  nn::Adam opt(nn::param_tensors(model.named_params()), cfg.lr);
  util::Rng rng(cfg.seed);

  // Per-chunk visit orders persist across epochs (reshuffled, like the
  // sequential trainer's single order vector), so a one-chunk stream
  // reproduces train()'s sequential path bit-exactly in every epoch.
  std::vector<std::vector<int>> chunk_orders;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    stream.reset();
    double epoch_loss = 0.0;
    std::size_t total_graphs = 0;
    std::size_t chunk_index = 0;
    std::vector<CircuitGraph> chunk;
    while (stream.next(chunk)) {
      if (chunk_index >= chunk_orders.size()) chunk_orders.resize(chunk_index + 1);
      std::vector<int>& order = chunk_orders[chunk_index];
      ++chunk_index;
      if (order.size() != chunk.size()) {
        order.resize(chunk.size());
        std::iota(order.begin(), order.end(), 0);
      }
      // Steps never straddle a chunk boundary: the tail batch closes here.
      train_pass(model, chunk, order, rng, opt, cfg, epoch_loss);
      total_graphs += chunk.size();
    }
    if (total_graphs == 0) return result;  // empty stream: no loss to report
    epoch_loss /= static_cast<double>(total_graphs);
    result.epoch_loss.push_back(epoch_loss);
    if (cfg.verbose)
      util::log_info(model.name(), " epoch ", epoch + 1, "/", cfg.epochs, " L1=",
                     epoch_loss, " (streamed ", total_graphs, " graphs)");
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace dg::gnn
