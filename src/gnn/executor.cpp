#include "gnn/executor.hpp"

#include "nn/arena.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace dg::gnn {

Batch Batch::merge(const std::vector<const CircuitGraph*>& parts) {
  Batch batch;
  if (parts.size() == 1) {
    batch.graph_ = parts[0];
    return batch;
  }
  batch.merged_ = std::make_unique<const CircuitGraph>(CircuitGraph::merge(parts));
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
  return merged_ ? merged_->members[i] : GraphMember{0, graph_->num_nodes};
}

std::vector<float> Batch::prediction(std::size_t i) const {
  return member_column(out_.prediction.value(), member(i));
}

nn::Matrix Batch::embedding(std::size_t i) const {
  return member_rows(out_.embedding.value(), member(i));
}

namespace {

/// Claim order for `groups` (indices into `live`): descending total node
/// rows — forward cost is linear in rows x level sweeps — then greater
/// merged depth, then plan position. Longest-processing-time-first keeps the
/// heaviest group off the tail of the pass.
std::vector<std::size_t> longest_first(const std::vector<const CircuitGraph*>& live,
                                       const std::vector<std::vector<std::size_t>>& groups) {
  std::vector<std::size_t> rows(groups.size(), 0);
  std::vector<int> depth(groups.size(), 0);
  for (std::size_t k = 0; k < groups.size(); ++k) {
    for (const std::size_t i : groups[k]) {
      rows[k] += static_cast<std::size_t>(live[i]->num_nodes);
      depth[k] = std::max(depth[k], live[i]->num_levels);
    }
  }
  std::vector<std::size_t> order(groups.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rows[a] != rows[b]) return rows[a] > rows[b];
    return depth[a] > depth[b];
  });
  return order;
}

}  // namespace

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
  const auto groups = plan_node_batches_by_depth(live, opts.node_budget, opts.max_graphs);
  const std::vector<std::size_t> order = longest_first(live, groups);

  const auto run_group = [&](std::size_t k) {
    const std::vector<std::size_t>& group = groups[k];
    std::vector<const CircuitGraph*> parts;
    parts.reserve(group.size());
    for (const std::size_t i : group) parts.push_back(live[i]);
    Batch batch = Batch::merge(parts);
    batch.forward(model, iterations);
    for (std::size_t m = 0; m < group.size(); ++m) sink(live_index[group[m]], batch, m);
  };

  const int requested = opts.threads > 0 ? opts.threads : util::default_num_threads();
  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, requested)), groups.size()));
  if (workers <= 1) {
    const nn::NoGradGuard no_grad;
    for (const std::size_t k : order) run_group(k);
    return groups.size();
  }
  // `workers` lanes claim groups off a shared counter in longest-first
  // order, so the heaviest group starts at once and a free lane always takes
  // the largest one left, while opts.threads still bounds concurrency. Each
  // sink writes its own indices and reductions downstream are index-ordered,
  // so the result is scheduling-independent.
  std::atomic<std::size_t> next{0};
  util::global_pool().run_chunks(workers, [&](int /*lane*/) {
    const nn::NoGradGuard no_grad;  // the grad-enable flag is thread_local
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= order.size()) break;
      run_group(order[c]);
    }
  });
  return groups.size();
}

}  // namespace dg::gnn
