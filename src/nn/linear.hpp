// Affine layer y = xW + b.
#pragma once

#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace dg::nn {

class Linear {
 public:
  Linear() = default;
  Linear(int in_features, int out_features, util::Rng& rng, bool bias = true);

  /// x: N x in -> N x out.
  Tensor forward(const Tensor& x) const;

  void collect(NamedParams& out, const std::string& prefix) const;

  int in_features() const { return in_; }
  int out_features() const { return out_; }

  /// Raw parameter access for fused no-grad kernels (the attention
  /// aggregator's thin Ex1 projections).
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }
  bool has_bias() const { return has_bias_; }

 private:
  int in_ = 0;
  int out_ = 0;
  bool has_bias_ = true;
  Tensor w_;  // in x out
  Tensor b_;  // 1 x out
};

}  // namespace dg::nn
