#include "nn/kernels.hpp"

#include "nn/simd/backend.hpp"
#include "nn/simd/dispatch.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace dg::nn::kern {

// Every kernel runs on the thread that calls it, one backend call over the
// full range. A forward's kernels see one level at a time (tens of rows), so
// splitting them across the pool cost more in wake-ups than it saved;
// parallelism lives one level up (serve lanes, gnn::execute designs, trainer
// replicas, simulator pattern blocks).

// i-k-j loop order: the inner loop walks both B and C contiguously, which is
// the cache-friendly ordering for row-major storage and vectorizes across
// the independent j elements.
Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  // n == 1 (attention scores, regressor output layers): the j-blocked inner
  // loop has nothing to vectorize; matvec is bitwise-identical and
  // vectorizes across rows instead.
  if (b.cols() == 1) return matvec(a, b);
  Matrix c(a.rows(), b.cols());
  backend().matmul_rows(c.data(), a.data(), b.data(), 0, a.rows(), a.cols(), b.cols());
  return c;
}

// Every output element keeps the serial p-ascending accumulation order.
Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  const int k = a.rows(), m = a.cols(), n = b.cols();
  backend().matmul_tn_cols(c.data(), a.data(), b.data(), 0, n, k, m, n);
  return c;
}

// Dot-product shaped (reduction over k per output element): j-vectorization
// cannot keep the oracle's accumulation order, so this stays scalar-only.
// It only runs in backward passes, never on the serving path.
Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  for (int i = 0; i < m; ++i) {
    const float* arow = a.row_ptr(i);
    float* crow = c.row_ptr(i);
    for (int j = 0; j < n; ++j) {
      const float* brow = b.row_ptr(j);
      float acc = 0.0F;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
  return c;
}

Matrix matvec(const Matrix& a, const Matrix& w) {
  assert(a.cols() == w.rows());
  return matvec(a.data(), a.rows(), w);
}

Matrix matvec(const float* a, int rows, const Matrix& w) {
  Matrix c(rows, 1);
  matvec(a, rows, w, c.data());
  return c;
}

void matvec(const float* a, int rows, const Matrix& w, float* c) {
  assert(w.cols() == 1);
  backend().matvec_rows(c, a, w.data(), 0, rows, w.rows());
}

Matrix add(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c(a.rows(), a.cols());
  backend().add_n(c.data(), a.data(), b.data(), a.size());
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c(a.rows(), a.cols());
  backend().sub_n(c.data(), a.data(), b.data(), a.size());
  return c;
}

Matrix mul(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c(a.rows(), a.cols());
  backend().mul_n(c.data(), a.data(), b.data(), a.size());
  return c;
}

Matrix scale(const Matrix& a, float s) {
  Matrix c(a.rows(), a.cols());
  backend().scale_n(c.data(), a.data(), s, a.size());
  return c;
}

Matrix add_rowvec(const Matrix& a, const Matrix& b) {
  assert(b.rows() == 1 && b.cols() == a.cols());
  Matrix c(a.rows(), a.cols());
  const KernelBackend& be = backend();
  const std::size_t n = static_cast<std::size_t>(a.cols());
  for (int r = 0; r < a.rows(); ++r) be.add_n(c.row_ptr(r), a.row_ptr(r), b.row_ptr(0), n);
  return c;
}

Matrix scale_rows(const Matrix& a, const Matrix& s) {
  assert(s.rows() == a.rows() && s.cols() == 1);
  Matrix c(a.rows(), a.cols());
  const KernelBackend& be = backend();
  const std::size_t n = static_cast<std::size_t>(a.cols());
  for (int r = 0; r < a.rows(); ++r) be.scale_n(c.row_ptr(r), a.row_ptr(r), s.at(r, 0), n);
  return c;
}

void acc(Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  backend().acc_n(a.data(), b.data(), a.size());
}

Matrix sigmoid(const Matrix& a) {
  Matrix c(a.rows(), a.cols());
  backend().sigmoid_n(c.data(), a.data(), a.size());
  return c;
}

Matrix tanh_m(const Matrix& a) {
  Matrix c(a.rows(), a.cols());
  backend().tanh_n(c.data(), a.data(), a.size());
  return c;
}

Matrix relu(const Matrix& a) {
  Matrix c(a.rows(), a.cols());
  backend().relu_n(c.data(), a.data(), a.size());
  return c;
}

Matrix col_sum(const Matrix& a) {
  Matrix c(1, a.cols());
  const KernelBackend& be = backend();
  for (int r = 0; r < a.rows(); ++r)
    be.acc_n(c.row_ptr(0), a.row_ptr(r), static_cast<std::size_t>(a.cols()));
  return c;
}

float sum_all(const Matrix& a) {
  float acc_v = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) acc_v += a.data()[i];
  return acc_v;
}

Matrix concat_cols(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.rows(), a.cols() + b.cols());
  const KernelBackend& be = backend();
  for (int r = 0; r < a.rows(); ++r) {
    float* crow = c.row_ptr(r);
    be.copy_n(crow, a.row_ptr(r), static_cast<std::size_t>(a.cols()));
    be.copy_n(crow + a.cols(), b.row_ptr(r), static_cast<std::size_t>(b.cols()));
  }
  return c;
}

Matrix slice_cols(const Matrix& a, int c0, int c1) {
  assert(0 <= c0 && c0 <= c1 && c1 <= a.cols());
  Matrix c(a.rows(), c1 - c0);
  const KernelBackend& be = backend();
  for (int r = 0; r < a.rows(); ++r)
    be.copy_n(c.row_ptr(r), a.row_ptr(r) + c0, static_cast<std::size_t>(c1 - c0));
  return c;
}

Matrix gather_rows(const Matrix& a, const std::vector<int>& idx) {
  Matrix c(static_cast<int>(idx.size()), a.cols());
  const KernelBackend& be = backend();
  const std::size_t n = static_cast<std::size_t>(a.cols());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    assert(idx[i] >= 0 && idx[i] < a.rows());
    be.copy_n(c.row_ptr(static_cast<int>(i)), a.row_ptr(idx[i]), n);
  }
  return c;
}

Matrix scatter_add_rows(const Matrix& src, const std::vector<int>& idx, int out_rows) {
  assert(src.rows() == static_cast<int>(idx.size()));
  Matrix c(out_rows, src.cols());
  const KernelBackend& be = backend();
  const std::size_t n = static_cast<std::size_t>(src.cols());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    assert(idx[i] >= 0 && idx[i] < out_rows);
    be.acc_n(c.row_ptr(idx[i]), src.row_ptr(static_cast<int>(i)), n);
  }
  return c;
}

Matrix softmax_segments(const Matrix& s, const std::vector<int>& segment, int num_segments) {
  assert(s.cols() == 1 && s.rows() == static_cast<int>(segment.size()));
  const int rows = s.rows();
  Matrix out(rows, 1);
  // Matrix scratch (not std::vector) so the per-segment reductions come from
  // the arena on the no-grad path instead of fresh heap allocations.
  Matrix seg_max(num_segments, 1, -std::numeric_limits<float>::infinity());
  Matrix seg_sum(num_segments, 1, 0.0F);
  const float* sv = s.data();
  float* mx = seg_max.data();
  float* sum = seg_sum.data();
  float* ov = out.data();
  for (int i = 0; i < rows; ++i) mx[segment[i]] = std::max(mx[segment[i]], sv[i]);
  for (int i = 0; i < rows; ++i) ov[i] = sv[i] - mx[segment[i]];
  backend().exp_n(ov, ov, static_cast<std::size_t>(rows));
  // Sum and normalize in ascending i: identical per-segment accumulation
  // order to the original fused exp loop, so scalar results are bitwise.
  for (int i = 0; i < rows; ++i) sum[segment[i]] += ov[i];
  for (int i = 0; i < rows; ++i) ov[i] /= sum[segment[i]];
  return out;
}

Matrix scale_rows_scatter_add(const Matrix& src, const Matrix& alpha,
                              const std::vector<int>& idx, int out_rows) {
  assert(src.rows() == static_cast<int>(idx.size()));
  assert(alpha.rows() == src.rows() && alpha.cols() == 1);
  Matrix c(out_rows, src.cols());
  const KernelBackend& be = backend();
  const std::size_t n = static_cast<std::size_t>(src.cols());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    assert(idx[i] >= 0 && idx[i] < out_rows);
    be.axpy_n(c.row_ptr(idx[i]), alpha.at(static_cast<int>(i), 0),
              src.row_ptr(static_cast<int>(i)), n);
  }
  return c;
}

// Dot-product shaped; scalar-only for the same reason as matmul_nt.
Matrix row_dot(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c(a.rows(), 1);
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row_ptr(r);
    const float* brow = b.row_ptr(r);
    float acc_v = 0.0F;
    for (int j = 0; j < a.cols(); ++j) acc_v += arow[j] * brow[j];
    c.at(r, 0) = acc_v;
  }
  return c;
}

}  // namespace dg::nn::kern
