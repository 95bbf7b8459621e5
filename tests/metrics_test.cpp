#include "gnn/metrics.hpp"

#include "aig/gate_graph.hpp"
#include "gnn/models.hpp"
#include "sim/probability.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace dg::gnn {
namespace {

using namespace dg::aig;

CircuitGraph tiny_graph() {
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  a.add_output(a.add_and(x, y));
  const GateGraph g = to_gate_graph(a);
  return CircuitGraph::from_gate_graph(g, sim::exact_gate_graph_probabilities(g));
}

TEST(Metrics, AvgPredictionErrorHandComputed) {
  std::vector<float> labels{0.5F, 0.25F};
  nn::Matrix pred = nn::Matrix::from_vector(2, 1, {0.6F, 0.05F});
  // (0.1 + 0.2) / 2 = 0.15 — Eq. (8).
  EXPECT_NEAR(avg_prediction_error(labels, pred), 0.15, 1e-6);
}

TEST(Metrics, PerfectPredictionIsZero) {
  std::vector<float> labels{0.3F, 0.7F};
  nn::Matrix pred = nn::Matrix::from_vector(2, 1, {0.3F, 0.7F});
  EXPECT_NEAR(avg_prediction_error(labels, pred), 0.0, 1e-7);
}

TEST(Metrics, EvaluateWeightsByNodeCount) {
  // Evaluation must average over ALL nodes, not per circuit: a big circuit
  // with zero error and a small one with high error must mix by node count.
  const CircuitGraph g = tiny_graph();
  ModelConfig cfg;
  cfg.dim = 8;
  cfg.iterations = 2;
  auto model = make_deepgate(cfg);
  const double single = evaluate(*model, {g});
  const double doubled = evaluate(*model, {g, g});
  EXPECT_NEAR(single, doubled, 1e-9);  // same circuit twice: same average
}

TEST(Metrics, PerCircuitMatchesAggregate) {
  const CircuitGraph g = tiny_graph();
  ModelConfig cfg;
  cfg.dim = 8;
  cfg.iterations = 2;
  auto model = make_deepgate(cfg);
  const auto per = evaluate_per_circuit(*model, {g, g});
  ASSERT_EQ(per.size(), 2U);
  EXPECT_NEAR(per[0], per[1], 1e-9);
  EXPECT_NEAR(per[0], evaluate(*model, {g}), 1e-9);
}

TEST(Metrics, EmptySetIsZero) {
  ModelConfig cfg;
  cfg.dim = 8;
  auto model = make_deepgate(cfg);
  EXPECT_EQ(evaluate(*model, {}), 0.0);
}

TEST(Metrics, IterationOverridePlumbing) {
  const CircuitGraph g = tiny_graph();
  ModelConfig cfg;
  cfg.dim = 8;
  cfg.iterations = 6;
  auto model = make_deepgate(cfg);
  const double e1 = evaluate(*model, {g}, {}, /*iterations=*/1);
  const double e6 = evaluate(*model, {g}, {}, /*iterations=*/6);
  const double e_default = evaluate(*model, {g});
  EXPECT_NEAR(e6, e_default, 1e-9);
  EXPECT_NE(e1, e6);
}

}  // namespace
}  // namespace dg::gnn
