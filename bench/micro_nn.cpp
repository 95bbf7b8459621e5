// Microbenchmarks of the neural substrate: the kernels dominating DeepGate's
// training/inference time — matmul and matvec per SIMD backend, GRU steps,
// attention aggregation, full model forward and forward+backward.
#include <benchmark/benchmark.h>

#include "aig/gate_graph.hpp"
#include "data/generators_large.hpp"
#include "gnn/models.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/simd/dispatch.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"

namespace {

using namespace dg;

// Kernel rows run on every backend: the second argument is the SimdLevel
// (0 scalar, 1 generic, 2 avx2; the label names it), so one run shows each
// backend's thin-level and wide-level rates side by side. Levels this CPU
// or build cannot run are skipped.
bool pin_level(benchmark::State& state, int arg) {
  const auto level = static_cast<nn::kern::SimdLevel>(arg);
  if (!nn::kern::simd::available(level)) {
    state.SkipWithError("backend not available");
    return false;
  }
  nn::kern::simd::set_level(level);
  state.SetLabel(nn::kern::simd::level_name(level));
  return true;
}

// Row counts 6 and 32 are thin topological levels; 16/256/4096 are merged
// serving batches.
void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  const nn::Matrix a = nn::normal(n, 64, 1.0F, rng);
  const nn::Matrix b = nn::normal(64, 64, 1.0F, rng);
  const nn::kern::SimdLevel prev = nn::kern::simd::active();
  if (!pin_level(state, static_cast<int>(state.range(1)))) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::kern::matmul(a, b));
  }
  nn::kern::simd::set_level(prev);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * 64 * 64 * 2);
}
BENCHMARK(BM_Matmul)->ArgsProduct({{6, 16, 32, 256, 4096}, {0, 1, 2}});

// The attention aggregator's E x 64 * 64 x 1 score projections. Rows 6, 12
// and 30 leave 6, 4 and 6 rows after the last 8-row block (the masked tail
// on avx2).
void BM_Matvec(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  util::Rng rng(4);
  const nn::Matrix a = nn::normal(rows, 64, 1.0F, rng);
  const nn::Matrix w = nn::normal(64, 1, 1.0F, rng);
  const nn::kern::SimdLevel prev = nn::kern::simd::active();
  if (!pin_level(state, static_cast<int>(state.range(1)))) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::kern::matvec(a, w));
  }
  nn::kern::simd::set_level(prev);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * rows * 64 * 2);
}
BENCHMARK(BM_Matvec)->ArgsProduct({{6, 12, 30, 256}, {0, 1, 2}});

void BM_GruForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(2);
  nn::GruCell gru(67, 64, rng);  // 64 + 3 one-hot, DeepGate's input width
  const nn::Matrix x = nn::normal(batch, 67, 1.0F, rng);
  const nn::Matrix h = nn::normal(batch, 64, 1.0F, rng);
  // The no-grad step as a sweep runs it, into preallocated buffers.
  std::vector<float> products(3 * h.size());
  std::vector<float> work(3 * h.size());
  nn::Matrix out(batch, 64);
  for (auto _ : state) {
    gru.hidden_products(h.data(), batch, products.data());
    gru.step_no_grad(x, nullptr, h.data(), products.data(), work.data(), nullptr, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_GruForward)->Arg(16)->Arg(256)->Arg(2048);

void BM_AttentionAggregate(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  const int dst = edges / 2;
  util::Rng rng(3);
  auto agg = gnn::make_aggregator(gnn::AggKind::kAttention, 64, 16, rng);
  const nn::Tensor h_src = nn::constant(nn::normal(edges, 64, 1.0F, rng));
  const nn::Tensor h_query = nn::constant(nn::normal(dst, 64, 1.0F, rng));
  std::vector<int> seg(static_cast<std::size_t>(edges));
  for (int e = 0; e < edges; ++e) seg[static_cast<std::size_t>(e)] = e % dst;
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg->forward(h_src, h_query, seg, dst, nullptr));  // no skip edges
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * edges);
}
BENCHMARK(BM_AttentionAggregate)->Arg(64)->Arg(1024)->Arg(8192);

const gnn::CircuitGraph& shared_graph() {
  static const gnn::CircuitGraph g = [] {
    const aig::Aig a = synth::optimize(data::gen_multiplier(12));
    const aig::GateGraph gg = aig::to_gate_graph(a);
    return gnn::CircuitGraph::from_gate_graph(gg,
                                              sim::gate_graph_probabilities(gg, 10000, 5));
  }();
  return g;
}

void BM_DeepGateInference(benchmark::State& state) {
  gnn::ModelConfig cfg;
  cfg.dim = 32;
  cfg.iterations = static_cast<int>(state.range(0));
  cfg.use_skip = true;
  auto model = gnn::make_deepgate(cfg);
  const gnn::CircuitGraph& g = shared_graph();
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->forward_outputs(g).prediction);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * g.num_nodes);
}
BENCHMARK(BM_DeepGateInference)->Arg(1)->Arg(10);

void BM_DeepGateTrainStep(benchmark::State& state) {
  gnn::ModelConfig cfg;
  cfg.dim = 32;
  cfg.iterations = 5;
  cfg.use_skip = true;
  auto model = gnn::make_deepgate(cfg);
  const gnn::CircuitGraph& g = shared_graph();
  const nn::Matrix target =
      nn::Matrix::from_vector(g.num_nodes, 1, std::vector<float>(g.labels));
  for (auto _ : state) {
    const nn::Tensor loss = nn::l1_loss(model->forward_outputs(g).prediction, target);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
    for (auto& [name, t] : model->named_params()) t.zero_grad();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * g.num_nodes);
}
BENCHMARK(BM_DeepGateTrainStep);

}  // namespace

BENCHMARK_MAIN();
