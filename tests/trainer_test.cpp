#include "gnn/trainer.hpp"

#include "aig/gate_graph.hpp"
#include "gnn/metrics.hpp"
#include "gnn/models.hpp"
#include "netlist/to_aig.hpp"
#include "data/generators_small.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"


#include <gtest/gtest.h>

namespace dg::gnn {
namespace {

std::vector<CircuitGraph> tiny_training_set(int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<CircuitGraph> graphs;
  while (static_cast<int>(graphs.size()) < count) {
    const aig::Aig a =
        synth::optimize(netlist::to_aig(data::gen_itc_like(rng)));
    if (a.num_ands() == 0 || a.uses_constants()) continue;
    const aig::GateGraph g = aig::to_gate_graph(a);
    if (g.size() > 600) continue;
    graphs.push_back(
        CircuitGraph::from_gate_graph(g, sim::gate_graph_probabilities(g, 20000, rng.next_u64())));
  }
  return graphs;
}

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.dim = 12;
  cfg.iterations = 3;
  cfg.mlp_hidden = 8;
  cfg.seed = 21;
  return cfg;
}

TEST(Trainer, LossDecreases) {
  const auto graphs = tiny_training_set(6, 1);
  auto model = make_deepgate(tiny_config());
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.lr = 3e-3F;
  cfg.seed = 2;
  cfg.batch_circuits = 2;  // several optimizer steps per epoch on 6 circuits
  const TrainResult result = train(*model, graphs, cfg);
  ASSERT_EQ(result.epoch_loss.size(), 8U);
  EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front() * 0.8);
}

TEST(Trainer, TrainingImprovesEvaluation) {
  const auto graphs = tiny_training_set(6, 3);
  auto model = make_deepgate(tiny_config());
  const double before = evaluate(*model, graphs);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.lr = 3e-3F;
  const TrainResult result = train(*model, graphs, cfg);
  const double after = evaluate(*model, graphs);
  EXPECT_LT(after, before);
}

TEST(Trainer, DeterministicGivenSeeds) {
  const auto graphs = tiny_training_set(4, 5);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.seed = 7;

  auto m1 = make_deepgate(tiny_config());
  auto m2 = make_deepgate(tiny_config());
  const auto r1 = train(*m1, graphs, cfg);
  const auto r2 = train(*m2, graphs, cfg);
  ASSERT_EQ(r1.epoch_loss.size(), r2.epoch_loss.size());
  for (std::size_t e = 0; e < r1.epoch_loss.size(); ++e)
    EXPECT_DOUBLE_EQ(r1.epoch_loss[e], r2.epoch_loss[e]);
}

TEST(Trainer, EmptyInputsAreSafe) {
  auto model = make_deepgate(tiny_config());
  TrainConfig cfg;
  const auto result = train(*model, {}, cfg);
  EXPECT_TRUE(result.epoch_loss.empty());
  cfg.epochs = 0;
  const auto graphs = tiny_training_set(1, 9);
  EXPECT_TRUE(train(*model, graphs, cfg).epoch_loss.empty());
}

TEST(Trainer, BatchAccumulationMatchesSmallBatches) {
  // Different batch sizes change step granularity but training must remain
  // stable and converge for both.
  const auto graphs = tiny_training_set(8, 11);
  for (int batch : {1, 4}) {
    auto model = make_deepgate(tiny_config());
    TrainConfig cfg;
    cfg.epochs = 4;
    cfg.batch_circuits = batch;
    cfg.lr = 2e-3F;
    const auto result = train(*model, graphs, cfg);
    EXPECT_LT(result.epoch_loss.back(), result.epoch_loss.front()) << "batch=" << batch;
  }
}

TEST(Trainer, BaselinesTrainToo) {
  const auto graphs = tiny_training_set(4, 13);
  for (auto family : {ModelFamily::kGcn, ModelFamily::kDagConv, ModelFamily::kDagRec}) {
    ModelSpec spec{family, AggKind::kDeepSet, false};
    auto model = make_model(spec, tiny_config());
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.lr = 3e-3F;
    const auto result = train(*model, graphs, cfg);
    EXPECT_LE(result.epoch_loss.back(), result.epoch_loss.front() * 1.05)
        << model_family_name(family);
  }
}

}  // namespace
}  // namespace dg::gnn
