// Eager numeric kernels on Matrix. These are the building blocks the autograd
// ops call in both forward and backward passes; they carry no tape state.
//
// Naming: `_tn` / `_nt` suffixes mean the first / second operand is used
// transposed, which covers every matmul the backward passes need without
// materializing transposes.
//
// Backends: the inner loops dispatch at runtime between a scalar reference
// oracle and vectorized implementations (see nn/simd/dispatch.hpp and the
// DEEPGATE_SIMD environment variable). All backends are bitwise-equal to the
// oracle except the sigmoid/tanh maps on avx2 (tested absolute-error bound).
//
// Threading: every kernel runs entirely on the thread that calls it and
// never touches the thread pool, so results do not depend on
// DEEPGATE_THREADS. Callers parallelize above the kernels (serve lanes,
// gnn::execute, trainer replicas).
#pragma once

#include "nn/matrix.hpp"

#include <vector>

namespace dg::nn::kern {

/// C = A(BxK) * B(KxN).
///
/// Zero-skip oracle property: elements of A comparing equal to 0.0f
/// (including -0.0f) are skipped entirely — they contribute no addend, not
/// even +0.0. Observable consequences, guaranteed across all backends:
/// the sign of a -0.0 accumulator survives a zero A-element, and Inf/NaN in
/// a B row multiplied only by zeros never reaches C. Applies to matmul,
/// matmul_tn and matvec.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B  (A: KxM used as MxK).
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// out (Nx1) = A (NxK) * w (Kx1): the n == 1 matmul special case, bitwise
/// identical to matmul(a, w) on every backend (same zero-skip, same
/// k-ascending accumulation) but dispatched to a kernel that vectorizes
/// across rows — the j-blocked matmuls have nothing to vectorize at n == 1.
/// Serves the attention aggregator's thin Ex1 score projections.
Matrix matvec(const Matrix& a, const Matrix& w);
/// The same over `rows` rows read where they live: row i of A is the
/// w.rows() floats at a + i * w.rows().
Matrix matvec(const float* a, int rows, const Matrix& w);
/// The same product added into the `rows` floats at `c`: on zeros, bitwise
/// what the overloads above return, without allocating.
void matvec(const float* a, int rows, const Matrix& w, float* c);

Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix mul(const Matrix& a, const Matrix& b);
Matrix scale(const Matrix& a, float s);
/// A (NxC) + row vector b (1xC) broadcast over rows.
Matrix add_rowvec(const Matrix& a, const Matrix& b);
/// out[r] = a[r] * s[r][0] — per-row scaling by a column vector (Nx1).
Matrix scale_rows(const Matrix& a, const Matrix& s);

/// In-place accumulate: a += b (shapes must match).
void acc(Matrix& a, const Matrix& b);

Matrix sigmoid(const Matrix& a);
Matrix tanh_m(const Matrix& a);
Matrix relu(const Matrix& a);

/// Row vector (1xC) with the sum of each column.
Matrix col_sum(const Matrix& a);
float sum_all(const Matrix& a);

Matrix concat_cols(const Matrix& a, const Matrix& b);
Matrix slice_cols(const Matrix& a, int c0, int c1);

/// out[i] = a[idx[i]]; idx values must be valid rows of a.
Matrix gather_rows(const Matrix& a, const std::vector<int>& idx);
/// out (out_rows x C), out[idx[i]] += src[i].
Matrix scatter_add_rows(const Matrix& src, const std::vector<int>& idx, int out_rows);

/// Per-row dot products of equally-shaped matrices -> Nx1.
Matrix row_dot(const Matrix& a, const Matrix& b);

/// Eager per-segment softmax over a column of scores (Ex1); segment[i]
/// names the destination group of row i. On the scalar backend the result
/// is bitwise-identical to the original fused exp loop in nn/ops.cpp
/// (identical values, identical per-segment accumulation order); the exp
/// itself goes through the dispatched exp_n so avx2 vectorizes it within
/// the documented transcendental bound. Segments with no rows are allowed
/// and simply produce no output rows.
Matrix softmax_segments(const Matrix& s, const std::vector<int>& segment, int num_segments);

/// Fused scale_rows + scatter_add_rows: out[idx[i]] += alpha[i] * src[i],
/// rows processed in ascending i. Bitwise identical to the two-kernel
/// composition on every backend (axpy_n keeps the same mul-then-add
/// roundings as scale_n followed by acc_n) without materializing the ExC
/// scaled intermediate.
Matrix scale_rows_scatter_add(const Matrix& src, const Matrix& alpha,
                              const std::vector<int>& idx, int out_rows);

}  // namespace dg::nn::kern
