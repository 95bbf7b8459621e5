#include "gnn/metrics.hpp"

#include <cmath>
#include <utility>

namespace dg::gnn {

double avg_prediction_error(const std::vector<float>& labels, const nn::Matrix& pred) {
  double total = 0.0;
  for (std::size_t v = 0; v < labels.size(); ++v)
    total += std::abs(static_cast<double>(pred.at(static_cast<int>(v), 0)) -
                      static_cast<double>(labels[v]));
  return labels.empty() ? 0.0 : total / static_cast<double>(labels.size());
}

/// One errors[i] per graph, filled by whichever worker runs graph i's batch;
/// a later reduction in index order is therefore scheduling-independent.
std::vector<double> evaluate_per_circuit(const Model& model,
                                         const std::vector<CircuitGraph>& test_set,
                                         const ServeOptions& opts, int iterations) {
  std::vector<double> errors(test_set.size(), 0.0);
  std::vector<const CircuitGraph*> ptrs;
  ptrs.reserve(test_set.size());
  for (const auto& g : test_set) ptrs.push_back(&g);
  execute(model, ptrs, opts, iterations,
          [&](std::size_t i, const Batch& batch, std::size_t member) {
            std::vector<float> pred = batch.prediction(member);
            const int n = static_cast<int>(pred.size());
            errors[i] = avg_prediction_error(test_set[i].labels,
                                             nn::Matrix::from_vector(n, 1, std::move(pred)));
          });
  return errors;
}

double evaluate(const Model& model, const std::vector<CircuitGraph>& test_set,
                const ServeOptions& opts, int iterations) {
  const std::vector<double> errors = evaluate_per_circuit(model, test_set, opts, iterations);
  // Fixed-order reduction (test-set order): deterministic at any thread count.
  double total = 0.0;
  std::size_t nodes = 0;
  for (std::size_t i = 0; i < test_set.size(); ++i) {
    total += errors[i] * static_cast<double>(test_set[i].num_nodes);
    nodes += static_cast<std::size_t>(test_set[i].num_nodes);
  }
  return nodes == 0 ? 0.0 : total / static_cast<double>(nodes);
}

}  // namespace dg::gnn
