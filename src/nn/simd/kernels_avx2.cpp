// AVX2 backend. This TU is the ONLY one compiled with -mavx2 -mfma (plus
// -ffp-contract=off so the compiler cannot fuse the explicit mul+add
// sequences into FMAs, which would change rounding versus the scalar
// oracle); nothing here runs unless dispatch.cpp verified AVX2+FMA via
// CPUID, so the rest of the library stays baseline-ISA. All code stays in
// this .cpp — no AVX2 codegen can leak into shared inline/template
// definitions from headers.
//
// Bitwise contract: identical to the oracle for every kernel except
// sigmoid/tanh (polynomial exp, tested absolute-error bound — see
// dispatch.hpp). The matmul family keeps the per-(i,p) zero-skip branch and
// blocks C in ymm registers across k, which preserves the oracle's
// k-ascending one-rounding-per-op accumulation per output element.
//
// Thin-level shapes (a topological level is often under 10 rows, the hidden
// width is 64) shape two of the blocks below:
//
//  * matmul_rows runs a 64-column block (8 accumulators) ahead of the
//    32-column and 8-column blocks. At n == 64 a row is one block, so each
//    k-step issues 8 independent add chains instead of 4; per element the
//    order is still k-ascending with one rounding per mul and per add.
//  * matvec_rows vectorizes across 8 rows; the rows left after the last full
//    8-row block (all of them on a level of fewer than 8 rows) run as ONE
//    masked block — masked gather, maskload/maskstore — instead of a scalar
//    k-chain bound by add latency. Masked-off lanes never touch memory, so
//    the block reads and writes exactly the rows the scalar loop would.
#include "nn/simd/backend.hpp"

#ifdef DG_SIMD_AVX2_TU

#include <immintrin.h>

namespace dg::nn::kern {
namespace {

void matmul_rows_avx2(float* c, const float* a, const float* b, int i0, int i1, int k, int n) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + 64 <= n; j += 64) {
      float* cj = crow + j;
      __m256 a0 = _mm256_loadu_ps(cj);
      __m256 a1 = _mm256_loadu_ps(cj + 8);
      __m256 a2 = _mm256_loadu_ps(cj + 16);
      __m256 a3 = _mm256_loadu_ps(cj + 24);
      __m256 a4 = _mm256_loadu_ps(cj + 32);
      __m256 a5 = _mm256_loadu_ps(cj + 40);
      __m256 a6 = _mm256_loadu_ps(cj + 48);
      __m256 a7 = _mm256_loadu_ps(cj + 56);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;
        const __m256 vav = _mm256_set1_ps(av);
        const float* bj = b + static_cast<std::size_t>(p) * n + j;
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(vav, _mm256_loadu_ps(bj)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 8)));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 16)));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 24)));
        a4 = _mm256_add_ps(a4, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 32)));
        a5 = _mm256_add_ps(a5, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 40)));
        a6 = _mm256_add_ps(a6, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 48)));
        a7 = _mm256_add_ps(a7, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 56)));
      }
      _mm256_storeu_ps(cj, a0);
      _mm256_storeu_ps(cj + 8, a1);
      _mm256_storeu_ps(cj + 16, a2);
      _mm256_storeu_ps(cj + 24, a3);
      _mm256_storeu_ps(cj + 32, a4);
      _mm256_storeu_ps(cj + 40, a5);
      _mm256_storeu_ps(cj + 48, a6);
      _mm256_storeu_ps(cj + 56, a7);
    }
    for (; j + 32 <= n; j += 32) {
      float* cj = crow + j;
      __m256 a0 = _mm256_loadu_ps(cj);
      __m256 a1 = _mm256_loadu_ps(cj + 8);
      __m256 a2 = _mm256_loadu_ps(cj + 16);
      __m256 a3 = _mm256_loadu_ps(cj + 24);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;
        const __m256 vav = _mm256_set1_ps(av);
        const float* bj = b + static_cast<std::size_t>(p) * n + j;
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(vav, _mm256_loadu_ps(bj)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 8)));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 16)));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(vav, _mm256_loadu_ps(bj + 24)));
      }
      _mm256_storeu_ps(cj, a0);
      _mm256_storeu_ps(cj + 8, a1);
      _mm256_storeu_ps(cj + 16, a2);
      _mm256_storeu_ps(cj + 24, a3);
    }
    for (; j + 8 <= n; j += 8) {
      float* cj = crow + j;
      __m256 acc = _mm256_loadu_ps(cj);
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0F) continue;
        const float* bj = b + static_cast<std::size_t>(p) * n + j;
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bj)));
      }
      _mm256_storeu_ps(cj, acc);
    }
    for (int p = 0; p < k && j < n; ++p) {
      const float av = arow[p];
      if (av == 0.0F) continue;
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
    }
  }
}

void matvec_rows_avx2(float* c, const float* a, const float* w, int i0, int i1, int k) {
  // n == 1 leaves the j-blocked matmul with nothing to vectorize, so this
  // kernel vectorizes ACROSS 8 rows: one gather of column p over 8 rows per
  // k-step. The zero-skip is reproduced exactly with a compare+blend — a
  // lane whose A-element compares equal to 0.0f keeps its accumulator
  // (NEQ_UQ so a NaN A-element is NOT skipped, matching `av == 0.0f` being
  // false for NaN), which also keeps Inf/NaN in skipped w entries out of c
  // and preserves a -0.0 accumulator. Mul and add stay separate roundings
  // (-ffp-contract=off), so every lane matches the scalar oracle bitwise.
  //
  // The 1..7 rows after the last full block run as one masked block: the
  // gather, maskload and maskstore leave lanes >= rem alone (no access at
  // all), and those lanes' av is the gather's zero source, so the zero-skip
  // blend keeps them untouched as well.
  const __m256 zero = _mm256_setzero_ps();
  const __m256i stride =
      _mm256_setr_epi32(0, k, 2 * k, 3 * k, 4 * k, 5 * k, 6 * k, 7 * k);
  int i = i0;
  for (; i + 8 <= i1; i += 8) {
    const float* base = a + static_cast<std::size_t>(i) * k;
    __m256 acc = _mm256_loadu_ps(c + i);
    for (int p = 0; p < k; ++p) {
      const __m256 av = _mm256_i32gather_ps(base + p, stride, 4);
      const __m256 mask = _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
      const __m256 sum = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_set1_ps(w[p])));
      acc = _mm256_blendv_ps(acc, sum, mask);
    }
    _mm256_storeu_ps(c + i, acc);
  }
  const int rem = i1 - i;
  if (rem <= 0) return;
  const __m256i lanes = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem),
                                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256 live = _mm256_castsi256_ps(lanes);
  const float* base = a + static_cast<std::size_t>(i) * k;
  __m256 acc = _mm256_maskload_ps(c + i, lanes);
  for (int p = 0; p < k; ++p) {
    const __m256 av = _mm256_mask_i32gather_ps(zero, base + p, stride, live, 4);
    const __m256 mask = _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
    const __m256 sum = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_set1_ps(w[p])));
    acc = _mm256_blendv_ps(acc, sum, mask);
  }
  _mm256_maskstore_ps(c + i, lanes, acc);
}

void matmul_tn_cols_avx2(float* c, const float* a, const float* b, int j0, int j1, int k, int m,
                         int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<std::size_t>(p) * m;
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;
      float* crow = c + static_cast<std::size_t>(i) * n;
      const __m256 vav = _mm256_set1_ps(av);
      int j = j0;
      for (; j + 8 <= j1; j += 8)
        _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                                 _mm256_mul_ps(vav, _mm256_loadu_ps(brow + j))));
      for (; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

void add_n_avx2(float* c, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(c + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) c[i] = a[i] + b[i];
}

void sub_n_avx2(float* c, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(c + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) c[i] = a[i] - b[i];
}

void mul_n_avx2(float* c, const float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(c + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) c[i] = a[i] * b[i];
}

void scale_n_avx2(float* c, const float* a, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(c + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  for (; i < n; ++i) c[i] = a[i] * s;
}

void acc_n_avx2(float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) a[i] += b[i];
}

void axpy_n_avx2(float* a, float alpha, const float* b, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                          _mm256_mul_ps(va, _mm256_loadu_ps(b + i))));
  for (; i < n; ++i) a[i] += alpha * b[i];
}

void relu_n_avx2(float* c, const float* a, std::size_t n) {
  // max_ps(x, +0) matches the scalar branch bit-for-bit: -0.0 maps to +0.0
  // (maxps returns the second operand on equality) and NaN maps to +0.0
  // (maxps returns the second operand when the first is NaN), exactly like
  // `x > 0 ? x : 0`.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(c + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  for (; i < n; ++i) c[i] = a[i] > 0.0F ? a[i] : 0.0F;
}

void copy_n_avx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
  for (; i < n; ++i) dst[i] = src[i];
}

/// Cephes-style exp: range-reduce by log 2, 6-term polynomial, scale by
/// 2^n via exponent bits. Finite inputs only (the activation maps below
/// clamp); ~2 ulp versus libm expf.
inline __m256 exp256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0F);
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647950F));
  x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949F));
  __m256 fx = _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341F)),
                            _mm256_set1_ps(0.5F));
  fx = _mm256_floor_ps(fx);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(0.693359375F)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(-2.12194440e-4F)));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4F);
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(1.3981999507e-3F));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(8.3334519073e-3F));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(4.1665795894e-2F));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(1.6666665459e-1F));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(5.0000001201e-1F));
  y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), x), one);
  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

inline __m256 sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 e = exp256(_mm256_xor_ps(x, _mm256_set1_ps(-0.0F)));  // exp(-x)
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 tanh8(__m256 x) {
  // tanh(x) = sign(x) * (1 - t) / (1 + t) with t = exp(-2|x|): the argument
  // of exp is always <= 0, so no overflow, and tanh(-x) == -tanh(x) exactly.
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 sign = _mm256_set1_ps(-0.0F);
  const __m256 s = _mm256_and_ps(x, sign);                           // sign bit of x
  const __m256 ax = _mm256_andnot_ps(sign, x);                       // |x|
  const __m256 t = exp256(_mm256_mul_ps(_mm256_set1_ps(-2.0F), ax)); // exp(-2|x|)
  const __m256 r = _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
  return _mm256_or_ps(r, s);
}

/// Runs `map8` over the tail (n % 8 elements) through a padded buffer so the
/// tail goes through the SAME polynomial as the full lanes. A libm tail would
/// make an element's value depend on its position (lane vs tail, which moves
/// with the batch row count and the thread-chunk boundaries) and break the
/// batched-vs-single bitwise guarantee; with a single map the value depends
/// only on the input.
template <typename Map8>
inline void map_tail(float* c, const float* a, std::size_t i, std::size_t n, Map8 map8) {
  if (i >= n) return;
  alignas(32) float buf[8] = {0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F};
  const std::size_t rem = n - i;
  for (std::size_t t = 0; t < rem; ++t) buf[t] = a[i + t];
  const __m256 r = map8(_mm256_load_ps(buf));
  _mm256_store_ps(buf, r);
  for (std::size_t t = 0; t < rem; ++t) c[i + t] = buf[t];
}

void sigmoid_n_avx2(float* c, const float* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(c + i, sigmoid8(_mm256_loadu_ps(a + i)));
  map_tail(c, a, i, n, [](__m256 x) { return sigmoid8(x); });
}

void tanh_n_avx2(float* c, const float* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(c + i, tanh8(_mm256_loadu_ps(a + i)));
  map_tail(c, a, i, n, [](__m256 x) { return tanh8(x); });
}

void exp_n_avx2(float* c, const float* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(c + i, exp256(_mm256_loadu_ps(a + i)));
  map_tail(c, a, i, n, [](__m256 x) { return exp256(x); });
}

}  // namespace

const KernelBackend* avx2_backend() {
  static const KernelBackend table = {
      "avx2",
      &matmul_rows_avx2,
      &matmul_tn_cols_avx2,
      &matvec_rows_avx2,
      &add_n_avx2,
      &sub_n_avx2,
      &mul_n_avx2,
      &scale_n_avx2,
      &acc_n_avx2,
      &axpy_n_avx2,
      &relu_n_avx2,
      &sigmoid_n_avx2,
      &tanh_n_avx2,
      &exp_n_avx2,
      &copy_n_avx2,
  };
  return &table;
}

}  // namespace dg::nn::kern

#else  // !DG_SIMD_AVX2_TU: non-x86-64 target.

namespace dg::nn::kern {
const KernelBackend* avx2_backend() { return nullptr; }
}  // namespace dg::nn::kern

#endif
