#include "gnn/trainer.hpp"

#include "aig/gate_graph.hpp"
#include "gnn/metrics.hpp"
#include "gnn/models.hpp"
#include "netlist/to_aig.hpp"
#include "data/generators_small.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

#include <cstdio>
#include <string>

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

/// FNV-1a over every trained parameter (name and value bits) and every
/// epoch loss: equal digests mean bitwise-equal training runs.
std::uint64_t run_digest(const Model& model, const TrainResult& result) {
  util::Fnv1a h;
  for (const auto& [name, t] : model.named_params()) {
    h.str(name);
    h.bytes(t.value().data(), t.value().size() * sizeof(float));
  }
  for (const double loss : result.epoch_loss) h.f64(loss);
  return h.digest();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A real multi-lane pool for the replica tests; restores the default after.
class FourLanePool {
 public:
  FourLanePool() { util::set_global_threads(4); }
  ~FourLanePool() { util::set_global_threads(util::default_num_threads()); }
};

/// Hands out the whole set as one chunk per pass.
class OneChunk final : public GraphStream {
 public:
  explicit OneChunk(const std::vector<CircuitGraph>& graphs) : graphs_(graphs) {}
  bool next(std::vector<CircuitGraph>& out) override {
    if (done_) return false;
    out = graphs_;
    done_ = true;
    return true;
  }
  void reset() override { done_ = false; }

 private:
  const std::vector<CircuitGraph>& graphs_;
  bool done_ = false;
};

TEST(Trainer, OneChunkStreamMatchesTrainAtEveryWorkerCount) {
  // train() and train_streaming() share one loop and pick workers the same
  // way, so a one-chunk stream is train() bit for bit, replicas included.
  const FourLanePool pool;
  const auto graphs = tiny_training_set(6, 17);
  for (int threads : {1, 4}) {
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.lr = 3e-3F;
    cfg.seed = 4;
    cfg.batch_circuits = 4;
    cfg.threads = threads;
    auto direct = make_deepgate(tiny_config());
    const TrainResult a = train(*direct, graphs, cfg);
    auto streamed = make_deepgate(tiny_config());
    OneChunk stream(graphs);
    const TrainResult b = train_streaming(*streamed, stream, cfg);
    EXPECT_EQ(a.threads_used, threads);
    EXPECT_EQ(b.threads_used, threads);
    ASSERT_EQ(a.epoch_loss.size(), 3U);
    EXPECT_EQ(run_digest(*direct, a), run_digest(*streamed, b)) << "threads=" << threads;
  }
}

TEST(Trainer, ThreeReplicaBatchesArePinned) {
  // Batches of 4 over 3 workers: the first batch spans all three replicas,
  // the tail batch of 2 leaves the master's own slice empty. The digests
  // were recorded from the earlier trainer, which copied every replica,
  // the master's slice included, into a gradient-free master; adding the
  // replicas into a master that holds slice 0 must give the same bits.
  const FourLanePool pool;
  const auto graphs = tiny_training_set(6, 17);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.lr = 3e-3F;
  cfg.seed = 4;
  cfg.batch_circuits = 4;
  cfg.threads = 3;
  const struct {
    ModelSpec spec;
    std::uint64_t digest;
  } cases[] = {
      {{ModelFamily::kDeepGate, AggKind::kAttention, false}, 0x6dd700e881e0e284ULL},
      {{ModelFamily::kDagConv, AggKind::kDeepSet, false}, 0x7f4f6b926d2c818aULL},
  };
  for (const auto& c : cases) {
    auto model = make_model(c.spec, tiny_config());
    const TrainResult result = train(*model, graphs, cfg);
    EXPECT_EQ(result.threads_used, 3);
    EXPECT_EQ(hex(run_digest(*model, result)), hex(c.digest)) << model->name();
  }
}

}  // namespace
}  // namespace dg::gnn
