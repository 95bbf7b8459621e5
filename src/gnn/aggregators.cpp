#include "gnn/aggregators.hpp"

#include "gnn/posenc.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"

#include <algorithm>

namespace dg::gnn {

using nn::Tensor;

const char* agg_kind_name(AggKind k) {
  switch (k) {
    case AggKind::kConvSum: return "Conv. Sum";
    case AggKind::kAttention: return "Attention";
    case AggKind::kDeepSet: return "DeepSet";
    case AggKind::kGatedSum: return "GatedSum";
  }
  return "?";
}

nn::Matrix Aggregator::forward_no_grad(nn::Matrix h_src, const float* /*h_query*/,
                                       const std::vector<int>& seg, int num_dst,
                                       const std::vector<SkipSlot>* skips) const {
  Tensor m = forward(nn::constant(std::move(h_src)), Tensor(), seg, num_dst, skips);
  return std::move(m.mutable_value());
}

namespace {

/// B x 1 constant of 1 / (edges into each destination), 0 for a destination
/// without edges: the mean normalization of Conv. Sum and DeepSet. Counts
/// are exact in float, so the quotients are the correctly rounded 1 / n.
Tensor inverse_counts(const std::vector<int>& seg, int num_dst) {
  nn::Matrix inv(num_dst, 1);
  float* v = inv.data();
  for (const int d : seg) v[d] += 1.0F;
  for (int i = 0; i < num_dst; ++i) v[i] = v[i] > 0.0F ? 1.0F / v[i] : 0.0F;
  return nn::constant(std::move(inv));
}

/// m = mean over incoming edges of (W h_u).
class ConvSumAggregator final : public Aggregator {
 public:
  ConvSumAggregator(int dim, util::Rng& rng) : lin_(dim, dim, rng) {}

  Tensor forward(const Tensor& h_src, const Tensor& /*h_query*/, const std::vector<int>& seg,
                 int num_dst, const std::vector<SkipSlot>* /*skips*/) const override {
    const Tensor msgs = lin_.forward(h_src);
    const Tensor summed = nn::scatter_add_rows(msgs, seg, num_dst);
    return nn::scale_rows(summed, inverse_counts(seg, num_dst));
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const override {
    lin_.collect(out, prefix + ".conv");
  }

 private:
  nn::Linear lin_;
};

/// m = W_post mean(relu(W_pre h_u)) — permutation-invariant set encoder.
class DeepSetAggregator final : public Aggregator {
 public:
  DeepSetAggregator(int dim, util::Rng& rng) : pre_(dim, dim, rng), post_(dim, dim, rng) {}

  Tensor forward(const Tensor& h_src, const Tensor& /*h_query*/, const std::vector<int>& seg,
                 int num_dst, const std::vector<SkipSlot>* /*skips*/) const override {
    const Tensor elem = nn::relu(pre_.forward(h_src));
    const Tensor pooled =
        nn::scale_rows(nn::scatter_add_rows(elem, seg, num_dst), inverse_counts(seg, num_dst));
    return post_.forward(pooled);
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const override {
    pre_.collect(out, prefix + ".pre");
    post_.collect(out, prefix + ".post");
  }

 private:
  nn::Linear pre_, post_;
};

/// m = sum of sigmoid(Wg h_u) o (Wm h_u) — D-VAE's gated sum.
class GatedSumAggregator final : public Aggregator {
 public:
  GatedSumAggregator(int dim, util::Rng& rng) : gate_(dim, dim, rng), map_(dim, dim, rng) {}

  Tensor forward(const Tensor& h_src, const Tensor& /*h_query*/, const std::vector<int>& seg,
                 int num_dst, const std::vector<SkipSlot>* /*skips*/) const override {
    const Tensor gated = nn::mul(nn::sigmoid(gate_.forward(h_src)), map_.forward(h_src));
    return nn::scatter_add_rows(gated, seg, num_dst);
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const override {
    gate_.collect(out, prefix + ".gate");
    map_.collect(out, prefix + ".map");
  }

 private:
  nn::Linear gate_, map_;
};

/// Additive attention of Eq. (5): score(u->v) = w1^T h_v^{t-1} + w2^T h_u^t
/// (+ w3^T gamma(D) on skip edges), alpha = per-destination softmax, message
/// m_v = sum alpha_uv h_u. Learns to weight controlling inputs highest.
class AttentionAggregator final : public Aggregator {
 public:
  AttentionAggregator(int dim, int pe_dim, util::Rng& rng)
      : query_(dim, 1, rng), key_(dim, 1, rng, /*bias=*/false),
        pe_(pe_dim, 1, rng, /*bias=*/false), table_(kMaxPosencDistance + 1, pe_dim) {
    for (int d = 0; d <= kMaxPosencDistance; ++d)
      write_positional_encoding(table_, d, d, pe_dim / 2);
  }

  Tensor forward(const Tensor& h_src, const Tensor& h_query, const std::vector<int>& seg,
                 int num_dst, const std::vector<SkipSlot>* skips) const override {
    if (!nn::grad_enabled())
      return nn::constant(fused(h_src.value(), h_query.value().data(), seg, num_dst, skips));
    const Tensor q = query_.forward(h_query);       // B x 1
    const Tensor q_edges = nn::gather_rows(q, seg);  // E x 1
    Tensor scores = nn::add(q_edges, key_.forward(h_src));
    if (skips != nullptr) {
      // The E x 2L encodings: each skip edge's table row, zeros elsewhere.
      nn::Matrix pe(static_cast<int>(seg.size()), table_.cols());
      for (const SkipSlot& s : *skips)
        std::copy_n(encoding(s.level_diff), table_.cols(), pe.row_ptr(s.edge));
      scores = nn::add(scores, pe_.forward(nn::constant(std::move(pe))));
    }
    const Tensor alpha = nn::softmax_segments(scores, seg, num_dst);
    return nn::scatter_add_rows(nn::scale_rows(h_src, alpha), seg, num_dst);
  }

  nn::Matrix forward_no_grad(nn::Matrix h_src, const float* h_query, const std::vector<int>& seg,
                             int num_dst, const std::vector<SkipSlot>* skips) const override {
    return fused(h_src, h_query, seg, num_dst, skips);
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const override {
    query_.collect(out, prefix + ".q");
    key_.collect(out, prefix + ".k");
    pe_.collect(out, prefix + ".pe");
  }

 private:
  /// The inference path, bitwise-identical to the op composition of
  /// forward(): matvec == matmul at n == 1, the scalar bias add is the same
  /// single addition add_rowvec performs at out_features == 1, the combine
  /// loop keeps the (q + key) + pe association of the two adds, and the
  /// fused scatter keeps scale-then-add rounding per row in ascending order.
  /// The query rows are read where they live (row stride d). The pe term is
  /// projected into the zeroed score column before the combine loop
  /// overwrites it, one skip edge's table row at a time: matvec computes
  /// each row on its own and leaves a zero row's +0.0, so the column is
  /// bitwise the taped E x 2L product.
  nn::Matrix fused(const nn::Matrix& h_src, const float* h_query, const std::vector<int>& seg,
                   int num_dst, const std::vector<SkipSlot>* skips) const {
    nn::Matrix q = nn::kern::matvec(h_query, num_dst, query_.weight().value());  // B x 1
    if (query_.has_bias()) {
      const float b0 = query_.bias().value().at(0, 0);
      for (int i = 0; i < q.rows(); ++i) q.data()[i] += b0;
    }
    const nn::Matrix key = nn::kern::matvec(h_src, key_.weight().value());
    const int num_edges = static_cast<int>(seg.size());
    nn::Matrix scores(num_edges, 1);
    if (skips != nullptr)
      for (const SkipSlot& s : *skips)
        nn::kern::matvec(encoding(s.level_diff), 1, pe_.weight().value(), scores.data() + s.edge);
    for (int i = 0; i < num_edges; ++i) {
      float v = q.data()[seg[i]] + key.data()[i];
      if (skips != nullptr) v += scores.data()[i];
      scores.data()[i] = v;
    }
    const nn::Matrix alpha = nn::kern::softmax_segments(scores, seg, num_dst);
    return nn::kern::scale_rows_scatter_add(h_src, alpha, seg, num_dst);
  }

  /// gamma(D) of a skip edge: its table row, the distance clamped as
  /// write_positional_encoding clamps it.
  const float* encoding(int level_diff) const {
    return table_.row_ptr(std::clamp(level_diff, 0, kMaxPosencDistance));
  }

  nn::Linear query_, key_, pe_;
  nn::Matrix table_;  ///< row D = gamma(D), D = 0 .. kMaxPosencDistance
};

}  // namespace

std::unique_ptr<Aggregator> make_aggregator(AggKind kind, int dim, int pe_dim, util::Rng& rng) {
  switch (kind) {
    case AggKind::kConvSum: return std::make_unique<ConvSumAggregator>(dim, rng);
    case AggKind::kDeepSet: return std::make_unique<DeepSetAggregator>(dim, rng);
    case AggKind::kGatedSum: return std::make_unique<GatedSumAggregator>(dim, rng);
    case AggKind::kAttention: return std::make_unique<AttentionAggregator>(dim, pe_dim, rng);
  }
  return nullptr;
}

}  // namespace dg::gnn
