// SIMD dispatch proof suite (ctest label: kernels). Every runnable backend
// is held to the scalar oracle's contract:
//
//  * bitwise equality on the matmul family and elementwise kernels, across
//    odd shapes (1x1, empty, non-multiple-of-8 tails) and alignments;
//  * the zero-skip oracle property (exact zeros, negative zeros, denormals,
//    Inf-bearing skipped B rows) — see nn/kernels.hpp;
//  * sweeps over every avx2 matvec tail length and matmul column block,
//    with 0.0f / -0.0f / NaN planted in A and Inf/NaN in the B rows that
//    meet only zero A-elements;
//  * bit-identical results at every DEEPGATE_THREADS value;
//  * sigmoid/tanh within the stated absolute bound on avx2 (bitwise on
//    generic, which keeps libm).
//
// The CI kernel-dispatch matrix re-runs this suite with DEEPGATE_SIMD set to
// each level, so the dispatcher's env path is proven too, not just
// set_level().
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace dg::nn::kern {
namespace {

std::vector<SimdLevel> runnable_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel l : {SimdLevel::kScalar, SimdLevel::kGeneric, SimdLevel::kAvx2})
    if (simd::available(l)) levels.push_back(l);
  return levels;
}

/// RAII: force a dispatch level, restore the previous one on scope exit.
class ScopedLevel {
 public:
  explicit ScopedLevel(SimdLevel level) : prev_(simd::set_level(level)) {}
  ~ScopedLevel() { simd::set_level(prev_); }

 private:
  SimdLevel prev_;
};

void expect_bitwise(const Matrix& got, const Matrix& want, const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  if (want.size() == 0) return;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
      << what << ": bitwise mismatch vs scalar oracle";
}

/// Random matrix with exact zeros and negative zeros salted in — normal()
/// alone never produces the values the zero-skip branch keys on.
Matrix salted(int rows, int cols, util::Rng& rng, std::uint64_t salt_seed) {
  Matrix m = normal(rows, cols, 1.0F, rng);
  util::Rng salt(salt_seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const std::uint64_t r = salt.next_below(8);
    if (r == 0) m.data()[i] = 0.0F;
    if (r == 1) m.data()[i] = -0.0F;
  }
  return m;
}

struct Shape {
  int m, k, n;
};

const Shape kShapes[] = {
    {1, 1, 1},   {2, 3, 5},   {7, 13, 17}, {4, 8, 33},  {3, 5, 64},
    {5, 64, 96}, {1, 12, 40}, {9, 7, 31},  {6, 16, 16}, {2, 10, 100},
    {0, 4, 4},   {4, 0, 4},   {4, 4, 0},
};

TEST(KernelDispatch, MatmulFamilyBitwiseAcrossLevels) {
  const auto levels = runnable_levels();
  util::Rng rng(101);
  for (const Shape& s : kShapes) {
    const Matrix a = salted(s.m, s.k, rng, 17);
    const Matrix b = normal(s.k, s.n, 1.0F, rng);
    const Matrix at = normal(s.k, s.m, 1.0F, rng);  // matmul_tn's first operand

    Matrix want, want_tn;
    {
      ScopedLevel scalar(SimdLevel::kScalar);
      want = matmul(a, b);
      want_tn = matmul_tn(at, b);
    }
    for (SimdLevel l : levels) {
      ScopedLevel level(l);
      const std::string tag = std::string(simd::level_name(l)) + " " + std::to_string(s.m) +
                              "x" + std::to_string(s.k) + "x" + std::to_string(s.n);
      expect_bitwise(matmul(a, b), want, "matmul " + tag);
      expect_bitwise(matmul_tn(at, b), want_tn, "matmul_tn " + tag);
    }
  }
}

TEST(KernelDispatch, ElementwiseBitwiseAcrossLevels) {
  const auto levels = runnable_levels();
  util::Rng rng(202);
  for (const int n : {1, 7, 8, 9, 31, 64, 100, 1000}) {
    const Matrix a = salted(3, n, rng, 23);
    const Matrix b = normal(3, n, 1.0F, rng);
    const Matrix rowv = normal(1, n, 1.0F, rng);
    const Matrix colv = normal(3, 1, 1.0F, rng);
    const std::vector<int> idx = {2, 0, 0, 1};
    const std::vector<int> dst = {2, 0, 0};  // a's rows into 3 rows

    Matrix w_add, w_sub, w_mul, w_scale, w_relu, w_rowvec, w_rows, w_acc, w_scaled_scatter;
    Matrix w_gather, w_scatter, w_concat, w_slice, w_colsum;
    {
      ScopedLevel scalar(SimdLevel::kScalar);
      w_add = add(a, b);
      w_sub = sub(a, b);
      w_mul = mul(a, b);
      w_scale = scale(a, 1.7F);
      w_relu = relu(a);
      w_rowvec = add_rowvec(a, rowv);
      w_rows = scale_rows(a, colv);
      w_acc = a;
      acc(w_acc, b);
      w_scaled_scatter = scale_rows_scatter_add(a, colv, dst, 3);
      expect_bitwise(w_scaled_scatter, scatter_add_rows(w_rows, dst, 3),
                     "scale_rows_scatter_add vs its composition n=" + std::to_string(n));
      w_gather = gather_rows(a, idx);
      w_scatter = scatter_add_rows(w_gather, idx, 3);
      w_concat = concat_cols(a, b);
      w_slice = slice_cols(a, n / 3, n);
      w_colsum = col_sum(a);
    }
    for (SimdLevel l : levels) {
      ScopedLevel level(l);
      const std::string tag = std::string(simd::level_name(l)) + " n=" + std::to_string(n);
      expect_bitwise(add(a, b), w_add, "add " + tag);
      expect_bitwise(sub(a, b), w_sub, "sub " + tag);
      expect_bitwise(mul(a, b), w_mul, "mul " + tag);
      expect_bitwise(scale(a, 1.7F), w_scale, "scale " + tag);
      expect_bitwise(relu(a), w_relu, "relu " + tag);
      expect_bitwise(add_rowvec(a, rowv), w_rowvec, "add_rowvec " + tag);
      expect_bitwise(scale_rows(a, colv), w_rows, "scale_rows " + tag);
      Matrix t = a;
      acc(t, b);
      expect_bitwise(t, w_acc, "acc " + tag);
      expect_bitwise(scale_rows_scatter_add(a, colv, dst, 3), w_scaled_scatter,
                     "scale_rows_scatter_add " + tag);
      expect_bitwise(gather_rows(a, idx), w_gather, "gather_rows " + tag);
      expect_bitwise(scatter_add_rows(w_gather, idx, 3), w_scatter, "scatter_add_rows " + tag);
      expect_bitwise(concat_cols(a, b), w_concat, "concat_cols " + tag);
      expect_bitwise(slice_cols(a, n / 3, n), w_slice, "slice_cols " + tag);
      expect_bitwise(col_sum(a), w_colsum, "col_sum " + tag);
    }
  }
}

// The zero-skip contract of nn/kernels.hpp, checked by its observable
// consequences on every backend.
TEST(KernelDispatch, ZeroSkipOracleProperty) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

  // A: row 0 multiplies B rows only by zeros; row 1 hits row 2 of B with a
  // denormal (NOT skipped — denormals are nonzero).
  Matrix a(2, 3);
  a.at(0, 0) = 0.0F;
  a.at(0, 1) = -0.0F;
  a.at(0, 2) = 0.0F;
  a.at(1, 0) = 1.0F;
  a.at(1, 1) = 0.0F;
  a.at(1, 2) = kDenorm;
  // B rows 0/1 carry Inf/NaN that must never reach C row 0 (all-zero A row);
  // B row 1 is also skipped for A row 1 (exact zero).
  Matrix b(3, 9);
  for (int j = 0; j < 9; ++j) {
    b.at(0, j) = (j % 2 == 0) ? kInf : 2.0F;
    b.at(1, j) = kNan;
    b.at(2, j) = 1.0F + static_cast<float>(j);
  }

  for (SimdLevel l : runnable_levels()) {
    ScopedLevel level(l);
    const std::string tag = simd::level_name(l);

    const Matrix c = matmul(a, b);
    for (int j = 0; j < 9; ++j) {
      // All contributions to row 0 skipped: exact +0.0, no Inf*0 NaN.
      EXPECT_EQ(0.0F, c.at(0, j)) << tag;
      EXPECT_FALSE(std::signbit(c.at(0, j))) << tag;
      // Row 1 = 1*B[0] + denorm*B[2]; the NaN row is skipped entirely.
      EXPECT_FALSE(std::isnan(c.at(1, j))) << tag << " j=" << j;
    }

    // A -0.0 accumulator survives skipped contributions with its sign.
    for (int j = 0; j < 9; ++j) {
      Matrix w(3, 1);
      for (int p = 0; p < 3; ++p) w.at(p, 0) = b.at(p, j);
      float acc_res[2] = {-0.0F, -0.0F};
      matvec(a.data(), 2, w, acc_res);
      EXPECT_EQ(0.0F, acc_res[0]) << tag;
      EXPECT_TRUE(std::signbit(acc_res[0]))
          << tag << ": zero-skip must not add +0.0 to a -0.0 accumulator";
    }
  }

  // And all levels agree bitwise on the denormal-bearing row.
  Matrix want;
  {
    ScopedLevel scalar(SimdLevel::kScalar);
    want = matmul(a, b);
  }
  for (SimdLevel l : runnable_levels()) {
    ScopedLevel level(l);
    const Matrix got = matmul(a, b);
    for (int j = 0; j < 9; ++j)
      EXPECT_EQ(want.at(1, j), got.at(1, j)) << simd::level_name(l) << " j=" << j;
  }
}

/// A (rows x k) for the special-value sweeps: normal values salted with
/// 0.0f, -0.0f and NaN, plus "dead" columns (every third, and the last)
/// holding only zeros of either sign. Returns the dead-column mask.
std::vector<bool> plant_specials(Matrix& a, std::uint64_t seed) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  const int k = a.cols();
  std::vector<bool> dead(static_cast<std::size_t>(k), false);
  for (int p = 0; p < k; p += 3) dead[static_cast<std::size_t>(p)] = true;
  if (k > 0) dead[static_cast<std::size_t>(k - 1)] = true;
  util::Rng salt(seed);
  for (int i = 0; i < a.rows(); ++i) {
    for (int p = 0; p < k; ++p) {
      float& v = a.at(i, p);
      if (dead[static_cast<std::size_t>(p)]) {
        v = salt.next_below(2) == 0 ? 0.0F : -0.0F;
        continue;
      }
      const std::uint64_t r = salt.next_below(16);
      if (r == 0) v = 0.0F;
      if (r == 1) v = -0.0F;
      if (r == 2 && salt.next_below(4) == 0) v = kNan;
    }
  }
  return dead;
}

/// Inf and NaN in the rows of B (or entries of w) that meet only zero
/// A-elements: the zero-skip must keep every one of them out of C.
void poison_dead_rows(Matrix& b, const std::vector<bool>& dead) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  for (int p = 0; p < b.rows(); ++p) {
    if (!dead[static_cast<std::size_t>(p)]) continue;
    for (int j = 0; j < b.cols(); ++j) b.at(p, j) = (p + j) % 2 == 0 ? kInf : -kNan;
  }
}

// Thin levels: every row count a topological level can leave after the
// avx2 matvec's last full 8-row block (1..7 masked lanes), whole blocks,
// and block + tail, over attention-shaped and odd k.
TEST(KernelDispatch, MatvecSweepBitwiseWithSpecialValues) {
  std::vector<int> row_counts;
  for (int rows = 1; rows <= 17; ++rows) row_counts.push_back(rows);
  row_counts.push_back(63);
  row_counts.push_back(250);
  util::Rng rng(404);
  for (const int k : {1, 7, 24, 64, 67}) {
    for (const int rows : row_counts) {
      Matrix a = normal(rows, k, 1.0F, rng);
      const std::vector<bool> dead =
          plant_specials(a, static_cast<std::uint64_t>(rows * 131 + k));
      Matrix w = normal(k, 1, 1.0F, rng);
      poison_dead_rows(w, dead);
      Matrix c0 = normal(rows, 1, 1.0F, rng);
      c0.at(0, 0) = -0.0F;
      Matrix want, want_acc;
      {
        ScopedLevel scalar(SimdLevel::kScalar);
        want = matvec(a, w);
        want_acc = c0;
        matvec(a.data(), rows, w, want_acc.data());
      }
      for (SimdLevel l : runnable_levels()) {
        ScopedLevel level(l);
        const std::string tag = std::string(simd::level_name(l)) +
                                " rows=" + std::to_string(rows) + " k=" + std::to_string(k);
        expect_bitwise(matvec(a, w), want, "matvec " + tag);
        expect_bitwise(matmul(a, w), want, "matmul n=1 " + tag);
        Matrix acc = c0;
        matvec(a.data(), rows, w, acc.data());
        expect_bitwise(acc, want_acc, "matvec into " + tag);
      }
    }
  }
}

// Every column block of the avx2 matmul (64, 32, 8, scalar tail) and their
// boundaries, at thin and wider row counts.
TEST(KernelDispatch, MatmulColumnSweepBitwiseWithSpecialValues) {
  util::Rng rng(505);
  for (const int n : {1, 8, 31, 32, 33, 63, 64, 65, 96, 128, 192}) {
    for (const int m : {1, 6, 33}) {
      for (const int k : {7, 67}) {
        Matrix a = normal(m, k, 1.0F, rng);
        const std::vector<bool> dead =
            plant_specials(a, static_cast<std::uint64_t>(n * 977 + m * 31 + k));
        Matrix b = normal(k, n, 1.0F, rng);
        poison_dead_rows(b, dead);
        Matrix want;
        {
          ScopedLevel scalar(SimdLevel::kScalar);
          want = matmul(a, b);
        }
        for (SimdLevel l : runnable_levels()) {
          ScopedLevel level(l);
          const std::string tag = std::string(simd::level_name(l)) + " " + std::to_string(m) +
                                  "x" + std::to_string(k) + "x" + std::to_string(n);
          expect_bitwise(matmul(a, b), want, "matmul " + tag);
        }
      }
    }
  }
}

TEST(KernelDispatch, ThreadCountInvariance) {
  util::Rng rng(303);
  const Matrix a = salted(37, 64, rng, 31);
  const Matrix b = normal(64, 96, 1.0F, rng);
  for (SimdLevel l : runnable_levels()) {
    ScopedLevel level(l);
    util::set_global_threads(1);
    const Matrix want = matmul(a, b);
    const Matrix want_sig = sigmoid(a);
    for (const int threads : {2, 3, 8}) {
      util::set_global_threads(threads);
      expect_bitwise(matmul(a, b), want,
                     std::string(simd::level_name(l)) + " threads=" + std::to_string(threads));
      expect_bitwise(sigmoid(a), want_sig,
                     std::string(simd::level_name(l)) + " sigmoid threads=" +
                         std::to_string(threads));
    }
  }
  util::set_global_threads(util::default_num_threads());
}

// generic keeps libm => bitwise; avx2 uses polynomial exp => bounded.
TEST(KernelDispatch, TranscendentalMapsWithinBound) {
  constexpr float kBound = 2e-6F;
  Matrix x(1, 2003);
  util::Rng rng(404);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = -20.0F + 40.0F * (static_cast<float>(rng.next_below(100000)) / 100000.0F);
  x.data()[0] = 0.0F;
  x.data()[1] = -0.0F;
  x.data()[2] = 88.0F;
  x.data()[3] = -88.0F;

  Matrix want_sig, want_tanh;
  {
    ScopedLevel scalar(SimdLevel::kScalar);
    want_sig = sigmoid(x);
    want_tanh = tanh_m(x);
  }
  for (SimdLevel l : runnable_levels()) {
    ScopedLevel level(l);
    const Matrix got_sig = sigmoid(x);
    const Matrix got_tanh = tanh_m(x);
    if (l == SimdLevel::kAvx2) {
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(want_sig.data()[i], got_sig.data()[i], kBound) << "sigmoid i=" << i;
        EXPECT_NEAR(want_tanh.data()[i], got_tanh.data()[i], kBound) << "tanh i=" << i;
      }
      // Odd symmetry of the vector tanh must be exact (sign-bit transfer).
      EXPECT_TRUE(std::signbit(got_tanh.data()[1]));
    } else {
      expect_bitwise(got_sig, want_sig, "sigmoid libm");
      expect_bitwise(got_tanh, want_tanh, "tanh libm");
    }
  }
}

// The activation maps must be pure functions of the element VALUE. If the
// n % 8 tail went through a different approximation than the full 8-lane
// groups (e.g. libm in the tail, polynomial in the lanes), an element's
// result would depend on its flat position — which moves with the batch row
// count and the thread-pool chunk boundaries — and merged-batch forwards
// would no longer reproduce single-graph forwards bitwise. Regression test:
// the same values embedded at a different lane phase (offset 3, different
// total length, so lane membership and tail membership both change) must map
// to bitwise-identical results.
TEST(KernelDispatch, TranscendentalMapsArePositionInvariant) {
  constexpr int kCount = 37;  // ends mid-lane-group at both embeddings
  util::Rng rng(606);
  Matrix base(1, kCount);
  for (std::size_t i = 0; i < base.size(); ++i)
    base.data()[i] = -8.0F + 16.0F * (static_cast<float>(rng.next_below(100000)) / 100000.0F);
  Matrix shifted(1, kCount + 11);
  for (std::size_t i = 0; i < shifted.size(); ++i) shifted.data()[i] = 0.25F;
  for (int i = 0; i < kCount; ++i) shifted.at(0, 3 + i) = base.at(0, i);

  for (SimdLevel l : runnable_levels()) {
    ScopedLevel level(l);
    const Matrix sig_base = sigmoid(base);
    const Matrix sig_shift = sigmoid(shifted);
    const Matrix tanh_base = tanh_m(base);
    const Matrix tanh_shift = tanh_m(shifted);
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(0, std::memcmp(sig_base.data() + i, sig_shift.data() + 3 + i, sizeof(float)))
          << "sigmoid depends on lane position at i=" << i << " level=" << simd::level_name(l);
      EXPECT_EQ(0, std::memcmp(tanh_base.data() + i, tanh_shift.data() + 3 + i, sizeof(float)))
          << "tanh depends on lane position at i=" << i << " level=" << simd::level_name(l);
    }
  }
}

TEST(KernelDispatch, ResolveAndNames) {
  EXPECT_EQ(SimdLevel::kScalar, simd::resolve("scalar"));
  EXPECT_EQ(SimdLevel::kGeneric, simd::resolve("generic"));
  EXPECT_EQ(simd::best_available(), simd::resolve("native"));
  EXPECT_EQ(simd::best_available(), simd::resolve("no-such-backend"));
  EXPECT_EQ(simd::best_available(), simd::resolve(""));
  if (simd::available(SimdLevel::kAvx2)) {
    EXPECT_EQ(SimdLevel::kAvx2, simd::resolve("avx2"));
  } else {
    EXPECT_EQ(simd::best_available(), simd::resolve("avx2"));
  }
  EXPECT_STREQ("scalar", simd::level_name(SimdLevel::kScalar));
  EXPECT_STREQ("generic", simd::level_name(SimdLevel::kGeneric));
  EXPECT_STREQ("avx2", simd::level_name(SimdLevel::kAvx2));
  // The scalar level is always runnable and force-able.
  EXPECT_TRUE(simd::available(SimdLevel::kScalar));
  const SimdLevel prev = simd::set_level(SimdLevel::kScalar);
  EXPECT_EQ(SimdLevel::kScalar, simd::active());
  simd::set_level(prev);
}

}  // namespace
}  // namespace dg::nn::kern
