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
  if (!grad_enabled()) return constant(forward_no_grad(x.value(), h.value()));
  const Tensor z = sigmoid(add_rowvec(add(matmul(x, wz_), matmul(h, uz_)), bz_));
  const Tensor r = sigmoid(add_rowvec(add(matmul(x, wr_), matmul(h, ur_)), br_));
  const Tensor n = tanh_t(add_rowvec(add(matmul(x, wn_), mul(r, matmul(h, un_))), bn_));
  // h' = (1 - z) o n + z o h, written without a ones constant:
  // h' = n - z o n + z o h.
  return add(sub(n, mul(z, n)), mul(z, h));
}

// The taped composition above, op for op, with every intermediate folded
// into three buffers plus the hidden-side products. Each matmul starts from
// a zeroed buffer like kern::matmul does, and each elementwise step is the
// same backend call on the same operands in the same order, only written
// in place, so the result is bitwise the taped one on every backend.
Matrix GruCell::forward_no_grad(const Matrix& x, const Matrix& h) const {
  Matrix products(3 * h.rows(), hidden_);
  hidden_products(h, products.data());
  return step_no_grad(x, nullptr, h, products.data());
}

void GruCell::hidden_products(const Matrix& h, float* out) const {
  assert(h.cols() == hidden_);
  const kern::KernelBackend& be = kern::backend();
  for (const Tensor* u : {&uz_, &ur_, &un_}) {
    std::fill_n(out, h.size(), 0.0F);
    be.matmul_rows(out, h.data(), u->value().data(), 0, h.rows(), hidden_, hidden_);
    out += h.size();
  }
}

Matrix GruCell::step_no_grad(const Matrix& x, const int* onehot, const Matrix& h,
                             const float* products) const {
  const int rows = h.rows();
  const bool fold = x.cols() < input_;
  assert(x.cols() <= input_ && (!fold || onehot != nullptr || rows == 0));
  const kern::KernelBackend& be = kern::backend();
  const std::size_t size = h.size();
  const std::size_t cols = static_cast<std::size_t>(hidden_);
  const float* hz = products;
  const float* hr = products + size;
  const float* hn = products + 2 * size;
  // buf = x * w from zero; a one-hot tail adds its weight row last.
  auto product = [&](Matrix& buf, const Tensor& w) {
    buf.fill(0.0F);
    be.matmul_rows(buf.data(), x.data(), w.value().data(), 0, rows, x.cols(), hidden_);
    if (!fold) return;
    for (int r = 0; r < rows; ++r)
      be.add_n(buf.row_ptr(r), buf.row_ptr(r), w.value().row_ptr(x.cols() + onehot[r]), cols);
  };
  // buf = buf + bias, row by row (kern::add_rowvec).
  auto add_bias = [&](Matrix& buf, const Tensor& bias) {
    const float* b = bias.value().data();
    for (int r = 0; r < rows; ++r) be.add_n(buf.row_ptr(r), buf.row_ptr(r), b, cols);
  };
  Matrix z(rows, hidden_);
  Matrix r(rows, hidden_);
  Matrix t(rows, hidden_);

  // z = sigmoid(x Wz + h Uz + bz)
  product(z, wz_);
  be.add_n(z.data(), z.data(), hz, size);
  add_bias(z, bz_);
  be.sigmoid_n(z.data(), z.data(), size);

  // r = sigmoid(x Wr + h Ur + br)
  product(r, wr_);
  be.add_n(r.data(), r.data(), hr, size);
  add_bias(r, br_);
  be.sigmoid_n(r.data(), r.data(), size);

  // n = tanh(x Wn + r o (h Un) + bn); r's buffer takes x Wn once r o (h Un)
  // has consumed r, and then holds n.
  be.mul_n(t.data(), r.data(), hn, size);
  Matrix& n = r;
  product(n, wn_);
  be.add_n(n.data(), n.data(), t.data(), size);
  add_bias(n, bn_);
  be.tanh_n(n.data(), n.data(), size);

  // h' = (n - z o n) + z o h
  be.mul_n(t.data(), z.data(), n.data(), size);
  be.sub_n(t.data(), n.data(), t.data(), size);
  be.mul_n(z.data(), z.data(), h.data(), size);
  be.add_n(t.data(), t.data(), z.data(), size);
  return t;
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
