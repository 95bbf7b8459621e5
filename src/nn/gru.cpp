#include "nn/gru.hpp"

#include "nn/init.hpp"
#include "nn/simd/backend.hpp"
#include "nn/simd/dispatch.hpp"

#include <algorithm>
#include <cassert>

namespace dg::nn {

GruCell::GruCell(int input_size, int hidden_size, util::Rng& rng)
    : input_(input_size), hidden_(hidden_size) {
  auto make_w = [&](int r, int c) {
    return Tensor::leaf(xavier_uniform(r, c, rng), /*requires_grad=*/true);
  };
  auto make_b = [&](int c) {
    return Tensor::leaf(Matrix::zeros(1, c), /*requires_grad=*/true);
  };
  wz_ = make_w(input_size, hidden_size);
  uz_ = make_w(hidden_size, hidden_size);
  bz_ = make_b(hidden_size);
  wr_ = make_w(input_size, hidden_size);
  ur_ = make_w(hidden_size, hidden_size);
  br_ = make_b(hidden_size);
  wn_ = make_w(input_size, hidden_size);
  un_ = make_w(hidden_size, hidden_size);
  bn_ = make_b(hidden_size);
}

Tensor GruCell::forward(const Tensor& x, const Tensor& h) const {
  const Tensor z = sigmoid(add_rowvec(add(matmul(x, wz_), matmul(h, uz_)), bz_));
  const Tensor r = sigmoid(add_rowvec(add(matmul(x, wr_), matmul(h, ur_)), br_));
  const Tensor n = tanh_t(add_rowvec(add(matmul(x, wn_), mul(r, matmul(h, un_))), bn_));
  // h' = (1 - z) o n + z o h, written without a ones constant:
  // h' = n - z o n + z o h.
  return add(sub(n, mul(z, n)), mul(z, h));
}

// hidden_products + step_no_grad are the taped composition above, op for
// op, with every intermediate folded into three work buffers plus the
// hidden-side products. Each matmul starts from a zeroed buffer like
// kern::matmul does, and each elementwise step is the same backend call on
// the same operands in the same order, only written in place, so the result
// is bitwise the taped one on every backend.
void GruCell::hidden_products(const float* h, int rows, float* out) const {
  const kern::KernelBackend& be = kern::backend();
  const std::size_t size = static_cast<std::size_t>(rows) * static_cast<std::size_t>(hidden_);
  for (const Tensor* u : {&uz_, &ur_, &un_}) {
    std::fill_n(out, size, 0.0F);
    be.matmul_rows(out, h, u->value().data(), 0, rows, hidden_, hidden_);
    out += size;
  }
}

void GruCell::step_no_grad(const Matrix& x, const int* onehot, const float* h,
                           const float* products, float* work,
                           const std::uint8_t* update_rows, float* out) const {
  const int rows = x.rows();
  const bool fold = x.cols() < input_;
  assert(x.cols() <= input_ && (!fold || onehot != nullptr || rows == 0));
  const kern::KernelBackend& be = kern::backend();
  const std::size_t cols = static_cast<std::size_t>(hidden_);
  const std::size_t size = static_cast<std::size_t>(rows) * cols;
  const float* hz = products;
  const float* hr = products + size;
  const float* hn = products + 2 * size;
  // buf = x * w from zero; a one-hot tail adds its weight row last.
  auto product = [&](float* buf, const Tensor& w) {
    std::fill_n(buf, size, 0.0F);
    be.matmul_rows(buf, x.data(), w.value().data(), 0, rows, x.cols(), hidden_);
    if (!fold) return;
    for (int r = 0; r < rows; ++r)
      be.add_n(buf + r * cols, buf + r * cols, w.value().row_ptr(x.cols() + onehot[r]), cols);
  };
  // buf = buf + bias, row by row (kern::add_rowvec).
  auto add_bias = [&](float* buf, const Tensor& bias) {
    const float* b = bias.value().data();
    for (int r = 0; r < rows; ++r) be.add_n(buf + r * cols, buf + r * cols, b, cols);
  };
  float* z = work;
  float* r = work + size;
  float* t = work + 2 * size;

  // z = sigmoid(x Wz + h Uz + bz)
  product(z, wz_);
  be.add_n(z, z, hz, size);
  add_bias(z, bz_);
  be.sigmoid_n(z, z, size);

  // r = sigmoid(x Wr + h Ur + br)
  product(r, wr_);
  be.add_n(r, r, hr, size);
  add_bias(r, br_);
  be.sigmoid_n(r, r, size);

  // n = tanh(x Wn + r o (h Un) + bn); r's buffer takes x Wn once r o (h Un)
  // has consumed r, and then holds n.
  be.mul_n(t, r, hn, size);
  float* n = r;
  product(n, wn_);
  be.add_n(n, n, t, size);
  add_bias(n, bn_);
  be.tanh_n(n, n, size);

  // h' = (n - z o n) + z o h; z o h is the last read of h, the sum the only
  // write to out.
  be.mul_n(t, z, n, size);
  be.sub_n(t, n, t, size);
  be.mul_n(z, z, h, size);
  if (update_rows == nullptr) {
    be.add_n(out, t, z, size);
    return;
  }
  for (int i = 0; i < rows; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * cols;
    if (update_rows[i] != 0) be.add_n(out + at, t + at, z + at, cols);
  }
}

void GruCell::collect(NamedParams& out, const std::string& prefix) const {
  out.emplace_back(prefix + ".wz", wz_);
  out.emplace_back(prefix + ".uz", uz_);
  out.emplace_back(prefix + ".bz", bz_);
  out.emplace_back(prefix + ".wr", wr_);
  out.emplace_back(prefix + ".ur", ur_);
  out.emplace_back(prefix + ".br", br_);
  out.emplace_back(prefix + ".wn", wn_);
  out.emplace_back(prefix + ".un", un_);
  out.emplace_back(prefix + ".bn", bn_);
}

}  // namespace dg::nn
