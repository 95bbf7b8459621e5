// Microbenchmarks of the circuit substrate: bit-parallel simulation
// throughput (the label-generation workhorse — the paper simulates up to
// 100k patterns per circuit), AIG construction/strashing, synthesis passes
// and reconvergence analysis.
#include <benchmark/benchmark.h>

#include "analysis/reconvergence.hpp"
#include "aig/gate_graph.hpp"
#include "data/generators_large.hpp"
#include "data/generators_small.hpp"
#include "netlist/to_aig.hpp"
#include "sim/bitsim.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "util/rng.hpp"

namespace {

using namespace dg;

const aig::Aig& shared_multiplier() {
  static const aig::Aig a = data::gen_multiplier(32);
  return a;
}

void BM_BitParallelSim(benchmark::State& state) {
  const aig::Aig& a = shared_multiplier();
  util::Rng rng(1);
  std::vector<std::uint64_t> patterns(a.num_inputs());
  for (auto& p : patterns) p = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_aig(a, patterns));
  }
  // 64 patterns per word-level evaluation of every AND.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.num_ands()) * 64);
}
BENCHMARK(BM_BitParallelSim);

void BM_ProbabilityEstimation(benchmark::State& state) {
  const aig::Aig& a = shared_multiplier();
  const std::size_t patterns = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::aig_probabilities(a, patterns, 7));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(patterns));
}
BENCHMARK(BM_ProbabilityEstimation)->Arg(1024)->Arg(16384)->Arg(100000);

// The GNN's training labels at the paper's 100k patterns, on the gate graph
// of the Table III multiplier (small scale) as data::graph_from_aig builds it.
void BM_GateGraphProbabilities(benchmark::State& state) {
  const aig::GateGraph g = aig::to_gate_graph(synth::optimize(data::gen_multiplier(32)));
  constexpr std::size_t kPatterns = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::gate_graph_probabilities(g, kPatterns, 7));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPatterns));
  state.counters["nodes"] = static_cast<double>(g.size());
}
BENCHMARK(BM_GateGraphProbabilities)->Unit(benchmark::kMillisecond);

void BM_AigConstruction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::gen_multiplier(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_AigConstruction)->Arg(8)->Arg(16)->Arg(32);

void BM_NetlistToAig(benchmark::State& state) {
  util::Rng rng(3);
  const netlist::Netlist nl = data::gen_epfl_like(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::to_aig(nl));
  }
}
BENCHMARK(BM_NetlistToAig);

void BM_SynthOptimize(benchmark::State& state) {
  util::Rng rng(4);
  const aig::Aig a = netlist::to_aig(data::gen_epfl_like(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::optimize(a));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.num_ands()));
}
BENCHMARK(BM_SynthOptimize);

void BM_ReconvergenceAnalysis(benchmark::State& state) {
  const aig::Aig a = synth::optimize(data::gen_arbiter(64, 2));
  const aig::GateGraph g = aig::to_gate_graph(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::find_reconvergences(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size()));
}
BENCHMARK(BM_ReconvergenceAnalysis);

void BM_GateGraphExpansion(benchmark::State& state) {
  const aig::Aig& a = shared_multiplier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(aig::to_gate_graph(a));
  }
}
BENCHMARK(BM_GateGraphExpansion);

}  // namespace

BENCHMARK_MAIN();
