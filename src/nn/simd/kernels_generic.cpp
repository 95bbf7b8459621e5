// Portable register-blocked backend: no intrinsics, baseline ISA, suitable
// for any target (NEON autovectorizes these loops well). The speedup over
// the scalar oracle comes from blocking C in locals across the k loop —
// the oracle reloads and stores every C element once per k step; these
// kernels touch memory once per 16-wide block.
//
// Bitwise contract with the oracle: per output element the accumulation
// order over k is unchanged (blocking is across independent elements only),
// the zero-skip branch is identical, and this TU is compiled with
// -ffp-contract=off so no platform can fuse the mul+add into an FMA.
#include "nn/simd/backend.hpp"

namespace dg::nn::kern {
namespace {

constexpr int kBlock = 16;  // floats held in locals per C block (4x SSE / 2x AVX lanes)

void matmul_rows_generic(float* c, const float* a, const float* b, int i0, int i1, int k,
                         int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + kBlock <= n; j += kBlock) {
      float acc[kBlock];
      for (int q = 0; q < kBlock; ++q) acc[q] = crow[j + q];
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;
        const float* bj = b + static_cast<std::size_t>(p) * n + j;
        for (int q = 0; q < kBlock; ++q) acc[q] += av * bj[q];
      }
      for (int q = 0; q < kBlock; ++q) crow[j + q] = acc[q];
    }
    // Tail: plain oracle order (k-ascending per element).
    for (int p = 0; p < k && j < n; ++p) {
      const float av = arow[p];
      if (av == 0.0F) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
    }
  }
}

}  // namespace

const KernelBackend& generic_backend() {
  // Only the k-blocked matmuls differ from the oracle; everything else is
  // either already memory-bound at baseline ISA (elementwise maps) or a
  // transcendental that must stay on libm to keep this backend fully
  // bitwise with scalar.
  static const KernelBackend table = {
      "generic",
      &matmul_rows_generic,
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
