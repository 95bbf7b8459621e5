#include "gnn/trainer.hpp"

#include "nn/ops.hpp"
#include "nn/optim.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <functional>
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

/// TrainConfig::threads resolved (0 = DEEPGATE_THREADS) and capped at
/// batch_circuits (at least 1): a batch never has work for more replicas.
int resolve_workers(const TrainConfig& cfg) {
  const int requested = cfg.threads > 0 ? cfg.threads : util::default_num_threads();
  return std::max(1, std::min(requested, cfg.batch_circuits));
}

/// The training loop (see trainer.hpp). Each epoch calls `rewind`, then
/// trains on every chunk `next_chunk` returns until it returns nullptr.
/// Each chunk keeps its own visit order across epochs, reshuffled per pass.
/// Batch slices are util::parallel_for_chunked's fixed chunks, so slice w
/// always runs on replica w.
TrainResult train_chunks(Model& model, TrainConfig cfg, int workers,
                         const std::function<void()>& rewind,
                         const std::function<const std::vector<CircuitGraph>*()>& next_chunk) {
  cfg.batch_circuits = std::max(1, cfg.batch_circuits);
  TrainResult result;
  result.threads_used = workers;
  util::Timer timer;

  nn::NamedParams master_named = model.named_params();
  nn::Adam opt(nn::param_tensors(master_named), cfg.lr);
  util::Rng rng(cfg.seed);
  opt.zero_grad();

  std::vector<const Model*> replicas{&model};
  std::vector<std::unique_ptr<Model>> clones;
  std::vector<nn::NamedParams> clone_named;
  for (int w = 1; w < workers; ++w) {
    clones.push_back(model.clone());
    clone_named.push_back(clones.back()->named_params());
    replicas.push_back(clones.back().get());
  }

  util::ThreadPool& pool = util::global_pool();
  const std::size_t batch = static_cast<std::size_t>(cfg.batch_circuits);
  std::vector<double> graph_loss(batch, 0.0);
  std::vector<std::vector<int>> chunk_orders;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    rewind();
    double epoch_loss = 0.0;
    std::size_t total_graphs = 0;
    std::size_t chunk_index = 0;
    while (const std::vector<CircuitGraph>* chunk = next_chunk()) {
      if (chunk_index >= chunk_orders.size()) chunk_orders.resize(chunk_index + 1);
      std::vector<int>& order = chunk_orders[chunk_index++];
      if (order.size() != chunk->size()) {
        order.resize(chunk->size());
        std::iota(order.begin(), order.end(), 0);
      }
      rng.shuffle(order);
      total_graphs += chunk->size();

      // Steps never straddle a chunk boundary: the tail batch closes here.
      for (std::size_t start = 0; start < order.size(); start += batch) {
        const std::size_t len = std::min(batch, order.size() - start);
        for (nn::NamedParams& named : clone_named) copy_params(master_named, named);

        util::parallel_for_chunked(
            pool, static_cast<std::int64_t>(len), workers,
            [&](int w, std::int64_t lo, std::int64_t hi) {
              for (std::int64_t j = lo; j < hi; ++j) {
                const std::size_t k = start + static_cast<std::size_t>(j);
                graph_loss[static_cast<std::size_t>(j)] = forward_backward(
                    *replicas[static_cast<std::size_t>(w)],
                    (*chunk)[static_cast<std::size_t>(order[k])], cfg.batch_circuits);
              }
            });

        // The master already holds slice 0's gradients; add replicas
        // 1, 2, ... in order.
        for (nn::NamedParams& named : clone_named) {
          for (std::size_t i = 0; i < master_named.size(); ++i) {
            nn::Tensor& rp = named[i].second;
            if (!rp.has_grad()) continue;
            master_named[i].second.node()->accum_grad(rp.grad());
            rp.zero_grad();
          }
        }
        // Summed in visit order, whatever the worker count.
        for (std::size_t j = 0; j < len; ++j) epoch_loss += graph_loss[j];

        opt.clip_grad_norm(cfg.clip_norm);
        opt.step();
        opt.zero_grad();
      }
    }
    if (total_graphs == 0) return result;  // empty stream: no loss to report
    epoch_loss /= static_cast<double>(total_graphs);
    result.epoch_loss.push_back(epoch_loss);
    if (cfg.verbose)
      util::log_info(model.name(), " epoch ", epoch + 1, "/", cfg.epochs, " L1=", epoch_loss,
                     " (", total_graphs, " graphs, ", workers, " workers)");
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace

TrainResult train(Model& model, const std::vector<CircuitGraph>& train_set,
                  const TrainConfig& cfg) {
  if (train_set.empty() || cfg.epochs <= 0) return TrainResult{};
  // Past one worker per graph the extra replicas only idle: every nonempty
  // slice already holds a single graph, in the same order.
  const int workers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(resolve_workers(cfg)), train_set.size()));
  bool served = false;
  return train_chunks(
      model, cfg, workers, [&] { served = false; },
      [&]() -> const std::vector<CircuitGraph>* {
        if (served) return nullptr;
        served = true;
        return &train_set;
      });
}

TrainResult train_streaming(Model& model, GraphStream& stream, const TrainConfig& cfg) {
  if (cfg.epochs <= 0) return TrainResult{};
  std::vector<CircuitGraph> chunk;
  return train_chunks(
      model, cfg, resolve_workers(cfg), [&] { stream.reset(); },
      [&]() -> const std::vector<CircuitGraph>* { return stream.next(chunk) ? &chunk : nullptr; });
}

}  // namespace dg::gnn
