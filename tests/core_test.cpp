// Public facade: the full user journey — prepare, train, predict, embed,
// save, reload — through deepgate::Engine only.
#include "core/deepgate.hpp"

#include "core/incremental_session.hpp"
#include "data/generators_small.hpp"
#include "sim/probability.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace {

using deepgate::CircuitGraph;
using deepgate::Engine;
using deepgate::Options;

std::vector<CircuitGraph> prepared_graphs(int count, std::uint64_t seed) {
  dg::util::Rng rng(seed);
  std::vector<CircuitGraph> graphs;
  for (int i = 0; i < count; ++i)
    graphs.push_back(deepgate::prepare(dg::data::gen_itc_like(rng), 20000, rng.next_u64()));
  return graphs;
}

Options tiny_options() {
  Options opt;
  opt.model.dim = 12;
  opt.model.iterations = 3;
  opt.model.mlp_hidden = 8;
  return opt;
}

/// A graph the default model (3 types) cannot read, and the fragments the
/// rejection message must contain.
struct IncompatibleGraph {
  CircuitGraph graph;
  std::string graph_value, model_value;
};

/// A raw netlist graph: num_types = 9. The type count is the one quantity
/// graph and model must share (Eq. (7)'s L is the model's alone).
std::vector<IncompatibleGraph> incompatible_graphs() {
  dg::util::Rng rng(5);
  const dg::netlist::Netlist nl = dg::data::gen_itc_like(rng);
  CircuitGraph nine_types =
      CircuitGraph::from_netlist(nl, dg::sim::netlist_probabilities(nl, 2000, 7));
  return {{std::move(nine_types), "num_types = 9", "num_types = 3"}};
}

/// `fn` must throw std::invalid_argument naming the field and both values.
template <typename Fn>
void expect_rejected(const IncompatibleGraph& bad, Fn&& fn) {
  try {
    fn();
    ADD_FAILURE() << "accepted a graph with " << bad.graph_value;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(bad.graph_value), std::string::npos) << what;
    EXPECT_NE(what.find(bad.model_value), std::string::npos) << what;
  }
}

TEST(Core, PrepareBuildsAigGraphWithLabels) {
  dg::util::Rng rng(1);
  const CircuitGraph g = deepgate::prepare(dg::data::gen_epfl_like(rng), 10000, 7);
  EXPECT_EQ(g.num_types, 3);
  EXPECT_GT(g.num_nodes, 10);
  EXPECT_EQ(g.labels.size(), static_cast<std::size_t>(g.num_nodes));
  for (float y : g.labels) {
    EXPECT_GE(y, 0.0F);
    EXPECT_LE(y, 1.0F);
  }
}

TEST(Core, TrainEvaluatePredict) {
  const auto graphs = prepared_graphs(5, 2);
  Engine engine(tiny_options());
  const double before = engine.evaluate(graphs);
  deepgate::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.lr = 3e-3F;
  engine.train(graphs, cfg);
  EXPECT_LT(engine.evaluate(graphs), before);

  const auto probs = engine.predict_probabilities(graphs[0]);
  ASSERT_EQ(probs.size(), static_cast<std::size_t>(graphs[0].num_nodes));
  for (float p : probs) {
    EXPECT_GE(p, 0.0F);
    EXPECT_LE(p, 1.0F);
  }
}

TEST(Core, EmbeddingsShape) {
  const auto graphs = prepared_graphs(1, 3);
  Engine engine(tiny_options());
  const dg::nn::Matrix emb = engine.embeddings(graphs[0]);
  EXPECT_EQ(emb.rows(), graphs[0].num_nodes);
  EXPECT_EQ(emb.cols(), 12);
}

TEST(Core, SaveLoadRoundTripPreservesPredictions) {
  const auto graphs = prepared_graphs(3, 4);
  Engine engine(tiny_options());
  deepgate::TrainConfig cfg;
  cfg.epochs = 2;
  engine.train(graphs, cfg);
  const auto before = engine.predict_probabilities(graphs[0]);

  const std::string path =
      (std::filesystem::temp_directory_path() / "dg_core_ckpt.dgtp").string();
  ASSERT_TRUE(engine.save(path));

  Engine restored(tiny_options());
  ASSERT_TRUE(restored.load(path));
  const auto after = restored.predict_probabilities(graphs[0]);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_FLOAT_EQ(before[i], after[i]);
  std::remove(path.c_str());
}

TEST(Core, LoadFromMissingFileFails) {
  Engine engine(tiny_options());
  EXPECT_FALSE(engine.load("/nonexistent/dir/ckpt.dgtp"));
}

TEST(Core, DefaultOptionsAreFullDeepGate) {
  Options opt;
  EXPECT_EQ(opt.spec.family, dg::gnn::ModelFamily::kDeepGate);
  EXPECT_TRUE(opt.spec.use_skip);
  Engine engine(opt);
  EXPECT_STREQ(engine.model().name(), "DeepGate");
}

TEST(Core, RejectsGraphsBuiltForAnotherModel) {
  const auto good = prepared_graphs(1, 8);
  const Engine engine(tiny_options());
  const auto before = engine.predict_probabilities(good[0]);
  for (const IncompatibleGraph& bad : incompatible_graphs()) {
    expect_rejected(bad, [&] { engine.predict_probabilities(bad.graph); });
    expect_rejected(bad, [&] { engine.embeddings(bad.graph); });
    expect_rejected(bad, [&] { engine.infer_batch({&good[0], &bad.graph}); });
    expect_rejected(bad, [&] { engine.evaluate({good[0], bad.graph}); });
    expect_rejected(bad, [&] { deepgate::IncrementalSession session(engine, bad.graph); });
  }
  EXPECT_EQ(engine.predict_probabilities(good[0]), before);
}

TEST(Core, AlternativeSpecsConstruct) {
  Options opt = tiny_options();
  opt.spec.family = dg::gnn::ModelFamily::kDagRec;
  opt.spec.agg = dg::gnn::AggKind::kDeepSet;
  Engine engine(opt);
  EXPECT_STREQ(engine.model().name(), "DAG-RecGNN");
}

}  // namespace
