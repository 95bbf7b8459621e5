// Scaling microbenchmark for the parallel execution layer: bit-parallel
// pattern simulation and a full data-parallel training run, each measured
// across thread counts with speedup vs the serial baseline. Also
// cross-checks the determinism contract: simulation results must be
// bit-identical at every thread count, and training losses must agree
// across worker counts to float tolerance. (The nn kernels have no
// thread-scaling row: they run on the calling thread at every
// DEEPGATE_THREADS value.)
//
// Honors --json out.json / DEEPGATE_BENCH_JSON for the perf-trajectory CI.
#include "harness.hpp"

#include "core/deepgate.hpp"
#include "data/generators_large.hpp"
#include "sim/probability.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

namespace {

struct Workload {
  std::size_t sim_patterns;
  int mult_bits;        // multiplier size for the simulated circuit
  int train_circuits;
  int train_epochs;
};

Workload workload_for(dg::util::BenchScale scale) {
  switch (scale) {
    case dg::util::BenchScale::kTiny: return {20000, 10, 4, 2};
    case dg::util::BenchScale::kPaper: return {100000, 24, 16, 8};
    case dg::util::BenchScale::kSmall: break;
  }
  return {100000, 16, 8, 3};
}

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    dg::util::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dg;
  bench::Context ctx = bench::make_context(argc, argv);
  bench::print_banner("micro_parallel: thread-scaling of sim / training", ctx);

  const Workload wl = workload_for(ctx.scale);
  const std::vector<int> thread_counts = {1, 2, 4};
  const int max_threads = thread_counts.back();

  util::TextTable table({"workload", "threads", "seconds", "speedup"});
  std::vector<bench::JsonRecord> records;
  const auto record = [&](const char* name, int threads, double seconds, double base) {
    table.add_row({name, std::to_string(threads), util::fmt_fixed(seconds, 4),
                   util::fmt_fixed(base / seconds, 2) + "x"});
    records.push_back(bench::JsonRecord{}
                          .str("workload", name)
                          .num("threads", threads)
                          .num("seconds", seconds)
                          .num("speedup", base / seconds));
  };

  // -- Pattern simulation ----------------------------------------------------
  const aig::Aig mult = data::gen_multiplier(wl.mult_bits);
  const aig::GateGraph gg = aig::to_gate_graph(mult);
  std::vector<std::vector<double>> sim_results;
  double sim_base = 0.0;
  for (const int t : thread_counts) {
    util::set_global_threads(t);
    std::vector<double> probs;
    const double secs = time_best_of(2, [&] {
      probs = sim::gate_graph_probabilities(gg, wl.sim_patterns, ctx.seed);
    });
    if (t == 1) sim_base = secs;
    sim_results.push_back(probs);
    record("simulation", t, secs, sim_base);
  }
  for (std::size_t i = 1; i < sim_results.size(); ++i)
    if (sim_results[i] != sim_results[0]) {
      std::fprintf(stderr, "FAIL: simulation not bit-identical across threads\n");
      return 1;
    }
  table.add_rule();

  // -- End-to-end training ---------------------------------------------------
  // Same prepared circuits for every thread count; sim runs at max_threads.
  util::set_global_threads(max_threads);
  std::vector<gnn::CircuitGraph> train_set;
  for (int i = 0; i < wl.train_circuits; ++i)
    train_set.push_back(deepgate::prepare(data::gen_squarer(8 + (i % 4)),
                                          wl.sim_patterns / 4, ctx.seed + i));
  std::printf("training set: %d circuits, %d epochs\n", wl.train_circuits, wl.train_epochs);

  double train_base = 0.0, loss_base = 0.0;
  for (const int t : thread_counts) {
    util::set_global_threads(t);
    deepgate::Options options;
    options.model = ctx.model;
    deepgate::Engine engine(options);
    gnn::TrainConfig tc = ctx.train_config();
    tc.epochs = wl.train_epochs;
    tc.threads = t;
    const gnn::TrainResult res = engine.train(train_set, tc);
    const double loss = res.epoch_loss.back();
    if (t == 1) {
      train_base = res.seconds;
      loss_base = loss;
    } else if (std::abs(loss - loss_base) > 5e-3 * (1.0 + std::abs(loss_base))) {
      std::fprintf(stderr, "FAIL: training loss diverged across worker counts\n");
      return 1;
    }
    record("train_epoch", t, res.seconds / wl.train_epochs, train_base / wl.train_epochs);
  }

  std::printf("\n%s\n", table.render().c_str());
  if (!bench::write_json_report(ctx, "micro_parallel", records)) return 1;
  if (!ctx.json_path.empty())
    std::printf("json report: %s\n", ctx.json_path.c_str());
  return 0;
}
