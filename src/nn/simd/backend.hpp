// Internal kernel-backend table: one set of raw-pointer worker functions per
// ISA level. The public kernels (nn/kernels.cpp) keep all shape logic and
// make one call through the active table over the full range, on the
// calling thread, so every backend sees identical work decomposition. The
// one other caller is the fused no-grad GRU step (nn/gru.cpp), which runs
// the elementwise workers in place on its own buffers.
//
// Contract: every worker must produce results BITWISE IDENTICAL to the
// scalar worker — same per-element floating-point operation order (the
// scalar oracle accumulates over k in ascending order per output element;
// vectorizing across independent output elements preserves that), same
// zero-skip semantics in the matmul family, no FMA contraction (the
// non-scalar TUs are compiled with -ffp-contract=off). The two deliberate
// exceptions are sigmoid_n / tanh_n, whose AVX2 versions use a polynomial
// exp and carry a tested absolute-error bound instead (see
// tests/kernel_dispatch_test.cpp); the generic backend keeps libm so the
// scalar <-> generic pair is bitwise on every kernel.
#pragma once

#include <cstddef>

namespace dg::nn::kern {

struct KernelBackend {
  const char* name;

  /// C rows [i0, i1) += A * B. Row-major, densely strided (A: m x k,
  /// B: k x n, C: m x n). Elements of A that compare equal to 0.0f are
  /// skipped (see kernels.hpp for the oracle semantics of the zero-skip).
  void (*matmul_rows)(float* c, const float* a, const float* b, int i0, int i1, int k, int n);

  /// C columns [j0, j1) += A^T * B (A: k x m used transposed, B: k x n,
  /// C: m x n), accumulating over rows p of A/B in ascending order.
  void (*matmul_tn_cols)(float* c, const float* a, const float* b, int j0, int j1, int k, int m,
                         int n);

  /// c[i] += dot(A row i, w) for rows [i0, i1) (A: rows x k, w: k floats,
  /// c: one float per row). Exactly matmul_rows with n == 1: zero-skip on
  /// A-elements, k-ascending accumulation, one rounding per mul and add.
  /// Exists because the attention aggregator's Ex1 score matmuls are too
  /// thin for the j-blocked matmul kernels to vectorize (n == 1 leaves only
  /// the scalar tail); backends may vectorize ACROSS rows instead.
  void (*matvec_rows)(float* c, const float* a, const float* w, int i0, int i1, int k);

  // Flat elementwise ranges of length n (the caller applies block offsets).
  void (*add_n)(float* c, const float* a, const float* b, std::size_t n);
  void (*sub_n)(float* c, const float* a, const float* b, std::size_t n);
  void (*mul_n)(float* c, const float* a, const float* b, std::size_t n);
  void (*scale_n)(float* c, const float* a, float s, std::size_t n);
  void (*acc_n)(float* a, const float* b, std::size_t n);
  void (*axpy_n)(float* a, float alpha, const float* b, std::size_t n);
  void (*relu_n)(float* c, const float* a, std::size_t n);
  void (*sigmoid_n)(float* c, const float* a, std::size_t n);
  void (*tanh_n)(float* c, const float* a, std::size_t n);
  /// c[i] = exp(a[i]). Scalar/generic call libm; AVX2 uses the same
  /// polynomial exp as sigmoid_n/tanh_n and shares their absolute-error
  /// bound + position-invariance contract. Powers the segment softmax.
  void (*exp_n)(float* c, const float* a, std::size_t n);
  void (*copy_n)(float* dst, const float* src, std::size_t n);
};

/// The reference oracle: the pre-dispatch scalar loops, verbatim.
const KernelBackend& scalar_backend();

/// Portable register-blocked backend (baseline ISA, manual 16-wide unroll).
const KernelBackend& generic_backend();

/// AVX2 intrinsics backend; nullptr when this build has no AVX2 TU
/// (non-x86-64 target). Callers must additionally
/// check CPU support at runtime before installing it (see dispatch.cpp).
const KernelBackend* avx2_backend();

// Scalar workers, exported so other backends can reuse them for kernels they
// do not specialize (reuse keeps those kernels trivially bitwise-equal).
namespace scalar_workers {
void matmul_rows(float* c, const float* a, const float* b, int i0, int i1, int k, int n);
void matmul_tn_cols(float* c, const float* a, const float* b, int j0, int j1, int k, int m,
                    int n);
void matvec_rows(float* c, const float* a, const float* w, int i0, int i1, int k);
void add_n(float* c, const float* a, const float* b, std::size_t n);
void sub_n(float* c, const float* a, const float* b, std::size_t n);
void mul_n(float* c, const float* a, const float* b, std::size_t n);
void scale_n(float* c, const float* a, float s, std::size_t n);
void acc_n(float* a, const float* b, std::size_t n);
void axpy_n(float* a, float alpha, const float* b, std::size_t n);
void relu_n(float* c, const float* a, std::size_t n);
void sigmoid_n(float* c, const float* a, std::size_t n);
void tanh_n(float* c, const float* a, std::size_t n);
void exp_n(float* c, const float* a, std::size_t n);
void copy_n(float* dst, const float* src, std::size_t n);
}  // namespace scalar_workers

}  // namespace dg::nn::kern
