// The four AGGREGATE designs evaluated in Table II:
//   Conv. Sum — linear transform + degree-normalized sum  [NeuroSAT-style]
//   Attention — additive query/key attention, Eq. (5)     [DeepGate / GAT]
//   DeepSet   — elementwise MLP + sum + post-map           [circuit-SAT]
//   GatedSum  — sigmoid-gated linear sum                   [D-VAE]
//
// All operate on a batch of edges targeting one set of destination nodes:
// h_src (E x d) are current-source states, h_query (B x d) are the previous
// states of the B destinations (attention only), seg maps each edge to its
// destination, and skips lists the batch's skip edges for the Eq. (7) term
// (attention only).
#pragma once

#include "gnn/circuit_graph.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

#include <memory>
#include <string>
#include <vector>

namespace dg::gnn {

enum class AggKind { kConvSum, kAttention, kDeepSet, kGatedSum };

const char* agg_kind_name(AggKind k);

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Returns B x d aggregated messages. `skips` is the batch's skip list
  /// (LevelBatch::skips) on a skip-connected layer and null elsewhere; only
  /// the attention aggregator reads it, adding the Eq. (7) term to the
  /// score of every edge of such a layer (zero on the normal edges). The
  /// sum-family means divide by the edge count of each destination in
  /// `seg`.
  virtual nn::Tensor forward(const nn::Tensor& h_src, const nn::Tensor& h_query,
                             const std::vector<int>& seg, int num_dst,
                             const std::vector<SkipSlot>* skips) const = 0;

  /// The same messages with gradients off, bitwise equal to forward():
  /// `h_src` holds the gathered E x d source rows and `h_query` points at
  /// the B destination rows of the sweep-start states (row stride d), read
  /// in place. The default runs forward() and suits every aggregator that
  /// reads neither the query nor the skips.
  virtual nn::Matrix forward_no_grad(nn::Matrix h_src, const float* h_query,
                                     const std::vector<int>& seg, int num_dst,
                                     const std::vector<SkipSlot>* skips) const;

  virtual void collect(nn::NamedParams& out, const std::string& prefix) const = 0;
};

/// Factory. `dim` is the hidden width d, `pe_dim` the Eq. (7) encoding
/// width 2L; only the attention aggregator reads it, building its table of
/// gamma(0) .. gamma(kMaxPosencDistance) once here.
std::unique_ptr<Aggregator> make_aggregator(AggKind kind, int dim, int pe_dim, util::Rng& rng);

}  // namespace dg::gnn
