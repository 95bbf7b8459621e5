// Evaluation metrics. The paper's metric (Eq. 8) is the average absolute
// difference between simulated and predicted probability over every node of
// every evaluated circuit.
//
// Evaluation runs on the batched executor (gnn/executor.hpp): the test set
// is packed into node-budgeted level-merged super-graphs and the batch
// forwards fan out across the thread pool. Merged forwards are bit-exact
// with per-graph forwards and per-graph errors are reduced in test-set
// order, so the reported Eq. (8) number is deterministic at any
// DEEPGATE_THREADS and identical whether batching is on (node_budget > 0) or
// off (the per-graph fallback, node_budget == 0, which still parallelizes
// over the pool).
#pragma once

#include "gnn/executor.hpp"

#include <vector>

namespace dg::gnn {

/// Eq. (8) over one circuit with an explicit prediction vector.
double avg_prediction_error(const std::vector<float>& labels, const nn::Matrix& pred);

/// Eq. (8) over a whole set: sum |y - y_hat| / total node count. Runs under
/// NoGradGuard, packed and pooled as `opts` says. `iterations` > 0 forces
/// the inference T (recurrent models; stacked models ignore it — see
/// Model::effective_iterations).
double evaluate(const Model& model, const std::vector<CircuitGraph>& test_set,
                const ServeOptions& opts = {}, int iterations = 0);

/// Per-circuit errors (same order as `test_set`), same arguments.
std::vector<double> evaluate_per_circuit(const Model& model,
                                         const std::vector<CircuitGraph>& test_set,
                                         const ServeOptions& opts = {}, int iterations = 0);

}  // namespace dg::gnn
