// The scalar reference oracle. These loop bodies are the original
// (pre-dispatch) kernel inner loops, moved here verbatim; every other
// backend is property-tested against them. Do not "optimize" this TU — its
// job is to stay the semantic fixed point:
//
//  * matmul family: per output element, products accumulate over k in
//    ascending order, one rounding per multiply and one per add (no FMA).
//  * zero-skip: A-elements comparing equal to 0.0f (which includes -0.0f)
//    contribute NOTHING — not even a +0.0 addend. This is observable: it
//    preserves the sign of a -0.0 accumulator and never turns an Inf/NaN in
//    the untouched B row into a NaN in C. Branchless implementations must
//    reproduce it exactly (the dispatch suite checks zeros, negative zeros,
//    denormals, and Inf-bearing rows).
//  * transcendental maps call libm (std::exp / std::tanh) per element.
#include "nn/simd/backend.hpp"

#include <cmath>

namespace dg::nn::kern {
namespace scalar_workers {

void matmul_rows(float* c, const float* a, const float* b, int i0, int i1, int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0F) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_tn_cols(float* c, const float* a, const float* b, int j0, int j1, int k, int m,
                    int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<std::size_t>(p) * m;
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

void matvec_rows(float* c, const float* a, const float* w, int i0, int i1, int k) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0F) continue;
      c[i] += av * w[p];
    }
  }
}

void add_n(float* c, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] + b[i];
}

void sub_n(float* c, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] - b[i];
}

void mul_n(float* c, const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] * b[i];
}

void scale_n(float* c, const float* a, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] * s;
}

void acc_n(float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
}

void axpy_n(float* a, float alpha, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += alpha * b[i];
}

void relu_n(float* c, const float* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] > 0.0F ? a[i] : 0.0F;
}

void sigmoid_n(float* c, const float* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = 1.0F / (1.0F + std::exp(-a[i]));
}

void tanh_n(float* c, const float* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = std::tanh(a[i]);
}

void exp_n(float* c, const float* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = std::exp(a[i]);
}

void copy_n(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

}  // namespace scalar_workers

const KernelBackend& scalar_backend() {
  static const KernelBackend table = {
      "scalar",
      &scalar_workers::matmul_rows,
      &scalar_workers::matmul_tn_cols,
      &scalar_workers::matvec_rows,
      &scalar_workers::add_n,
      &scalar_workers::sub_n,
      &scalar_workers::mul_n,
      &scalar_workers::scale_n,
      &scalar_workers::acc_n,
      &scalar_workers::axpy_n,
      &scalar_workers::relu_n,
      &scalar_workers::sigmoid_n,
      &scalar_workers::tanh_n,
      &scalar_workers::exp_n,
      &scalar_workers::copy_n,
  };
  return table;
}

}  // namespace dg::nn::kern
