#include "gnn/executor.hpp"

#include "gnn/merge_cache.hpp"
#include "nn/arena.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace dg::gnn {

ServeOptions ServeOptions::from_env() {
  ServeOptions opts;
  const long long budget = util::env_int("DEEPGATE_SERVE_BUDGET", -1);
  if (budget >= 0) opts.node_budget = static_cast<std::size_t>(budget);
  const long long max_graphs = util::env_int("DEEPGATE_SERVE_MAX_GRAPHS", -1);
  if (max_graphs > 0) opts.max_graphs = static_cast<std::size_t>(max_graphs);
  const long long cache = util::env_int("DEEPGATE_SERVE_CACHE", -1);
  if (cache >= 0) opts.merge_cache_capacity = static_cast<std::size_t>(cache);
  return opts;
}

Batch Batch::merge(const std::vector<const CircuitGraph*>& parts, MergeCache* cache,
                   bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  Batch batch;
  if (parts.size() == 1) {
    batch.graph_ = parts[0];
    return batch;
  }
  batch.merged_ = cache != nullptr
                      ? cache->merged(parts, cache_hit)
                      : std::make_shared<const CircuitGraph>(CircuitGraph::merge(parts));
  batch.graph_ = batch.merged_.get();
  return batch;
}

void Batch::forward(const Model& model, int iterations) {
  // Inside the scope the forward's buffers come from this thread's arena;
  // prediction()/embedding() copy out after it closes, so caller-held
  // results are plain heap, never drained from the arena.
  const nn::ArenaScope arena;
  out_ = model.forward_outputs(*graph_, iterations);
}

GraphMember Batch::member(std::size_t i) const {
  return merged_ ? merged_->members[i] : GraphMember{0, graph_->num_nodes, graph_->num_levels};
}

std::vector<float> Batch::prediction(std::size_t i) const {
  return member_column(out_.prediction.value(), member(i));
}

nn::Matrix Batch::embedding(std::size_t i) const {
  return member_rows(out_.embedding.value(), member(i));
}

std::size_t execute(const Model& model, const std::vector<const CircuitGraph*>& graphs,
                    const ServeOptions& opts, int iterations, const BatchSink& sink) {
  std::vector<const CircuitGraph*> live;
  std::vector<std::size_t> live_index;
  live.reserve(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (graphs[i] == nullptr) throw std::invalid_argument("gnn::execute: null graph");
    check_compatible(model.config(), *graphs[i]);
    if (graphs[i]->num_nodes == 0) continue;
    live.push_back(graphs[i]);
    live_index.push_back(i);
  }
  if (live.empty()) return 0;
  const auto plan = plan_node_batches(live, opts.node_budget, opts.max_graphs);

  const auto run_batch = [&](std::size_t b) {
    const auto [begin, end] = plan[b];
    Batch batch = Batch::merge({live.begin() + static_cast<std::ptrdiff_t>(begin),
                                live.begin() + static_cast<std::ptrdiff_t>(end)},
                               opts.merge_cache);
    batch.forward(model, iterations);
    for (std::size_t i = begin; i < end; ++i) sink(live_index[i], batch, i - begin);
  };

  const int requested = opts.threads > 0 ? opts.threads : util::default_num_threads();
  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, requested)), plan.size()));
  if (workers <= 1) {
    const nn::NoGradGuard no_grad;
    for (std::size_t b = 0; b < plan.size(); ++b) run_batch(b);
    return plan.size();
  }
  // `workers` lanes claim batches dynamically off a shared counter, so a
  // straggler batch never leaves other lanes idle behind a static partition
  // while opts.threads still bounds concurrency. Each sink writes its own
  // indices and reductions downstream are index-ordered, so the result is
  // scheduling-independent.
  std::atomic<std::size_t> next{0};
  util::global_pool().run_chunks(workers, [&](int /*lane*/) {
    const nn::NoGradGuard no_grad;  // the grad-enable flag is thread_local
    for (;;) {
      const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= plan.size()) break;
      run_batch(b);
    }
  });
  return plan.size();
}

}  // namespace dg::gnn
