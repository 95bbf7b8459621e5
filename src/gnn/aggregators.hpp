// The four AGGREGATE designs evaluated in Table II:
//   Conv. Sum — linear transform + degree-normalized sum  [NeuroSAT-style]
//   Attention — additive query/key attention, Eq. (5)     [DeepGate / GAT]
//   DeepSet   — elementwise MLP + sum + post-map           [circuit-SAT]
//   GatedSum  — sigmoid-gated linear sum                   [D-VAE]
//
// All operate on a batch of edges targeting one set of destination nodes:
// h_src (E x d) are current-source states, h_query (B x d) are the previous
// states of the B destinations (attention only), seg maps each edge to its
// destination, and pe carries per-edge positional encodings for skip edges.
#pragma once

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

  /// Returns B x d aggregated messages. `inv_deg` (B x 1 constant) provides
  /// mean normalization for the sum-family aggregators. `pe_term` is the
  /// output of project_pe() on the batch's per-edge encodings and may be
  /// undefined (no skip edges in the batch, or an aggregator that ignores
  /// them).
  virtual nn::Tensor forward(const nn::Tensor& h_src, const nn::Tensor& h_query,
                             const std::vector<int>& seg, int num_dst,
                             const nn::Tensor& inv_deg, const nn::Tensor& pe_term) const = 0;

  /// The same messages with gradients off, bitwise equal to forward():
  /// `h_src` holds the gathered E x d source rows, `h_query` points at the
  /// B destination rows of the sweep-start states (row stride d), read in
  /// place, `inv_deg` holds the per-destination 1 / indegree and `pe_term`
  /// the E project_pe() values (nullptr when forward() would get an
  /// undefined term). The default runs forward() and suits every
  /// aggregator that reads neither the query nor pe.
  virtual nn::Matrix forward_no_grad(nn::Matrix h_src, const float* h_query,
                                     const std::vector<int>& seg, int num_dst,
                                     const std::vector<float>& inv_deg,
                                     const float* pe_term) const;

  /// Project per-edge positional encodings (E x 2L) into the per-edge score
  /// contribution forward() consumes (E x 1). Hoisted out of forward() so
  /// recurrent models can compute it once per graph instead of once per
  /// sweep — the encodings are constant across iterations. Aggregators that
  /// ignore pe return an undefined Tensor.
  virtual nn::Tensor project_pe(const nn::Tensor& pe) const {
    (void)pe;
    return {};
  }

  virtual void collect(nn::NamedParams& out, const std::string& prefix) const = 0;
};

/// Factory. `dim` is the hidden width d, `pe_dim` the skip-edge attribute
/// width (2L); only the attention aggregator consumes pe.
std::unique_ptr<Aggregator> make_aggregator(AggKind kind, int dim, int pe_dim, util::Rng& rng);

}  // namespace dg::gnn
