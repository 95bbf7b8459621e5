#include "nn/linear.hpp"

#include "nn/init.hpp"

namespace dg::nn {

Linear::Linear(int in_features, int out_features, util::Rng& rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  w_ = Tensor::leaf(xavier_uniform(in_features, out_features, rng), /*requires_grad=*/true);
  if (bias) {
    b_ = Tensor::leaf(Matrix::zeros(1, out_features), /*requires_grad=*/true);
  }
}

Tensor Linear::forward(const Tensor& x) const {
  Tensor y = matmul(x, w_);
  if (has_bias_) y = add_rowvec(y, b_);
  return y;
}

void Linear::collect(NamedParams& out, const std::string& prefix) const {
  out.emplace_back(prefix + ".w", w_);
  if (has_bias_) out.emplace_back(prefix + ".b", b_);
}

}  // namespace dg::nn
