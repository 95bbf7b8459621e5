// SIMD dispatch proof suite (ctest label: kernels). Every runnable backend
// is held to the scalar oracle's contract:
//
//  * bitwise equality on the matmul family and elementwise kernels, across
//    odd shapes (1x1, empty, non-multiple-of-8 tails) and alignments;
//  * the zero-skip oracle property (exact zeros, negative zeros, denormals,
//    Inf-bearing skipped B rows) — see nn/kernels.hpp;
//  * bit-identical results at every DEEPGATE_THREADS value;
//  * sigmoid/tanh within the stated absolute bound on avx2 (bitwise on
//    generic, which keeps libm);
//  * bf16: exact decode, round-to-nearest-even, and the key guarantee
//    matmul_bf16(a, to_bf16(w)) == matmul(a, bf16_round(w)) bitwise;
//  * Engine-level bf16 inference within a measured accuracy bound of fp32.
//
// The CI kernel-dispatch matrix re-runs this suite with DEEPGATE_SIMD set to
// each level, so the dispatcher's env path is proven too, not just
// set_level().
#include "core/deepgate.hpp"
#include "data/generators_large.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/simd/backend.hpp"
#include "nn/simd/bf16.hpp"
#include "nn/simd/dispatch.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
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
    const Matrix c0 = normal(s.m, s.n, 1.0F, rng);  // matmul_acc start state

    Matrix want, want_acc, want_tn;
    {
      ScopedLevel scalar(SimdLevel::kScalar);
      want = matmul(a, b);
      want_acc = c0;
      matmul_acc(want_acc, a, b);
      want_tn = matmul_tn(at, b);
    }
    for (SimdLevel l : levels) {
      ScopedLevel level(l);
      const std::string tag = std::string(simd::level_name(l)) + " " + std::to_string(s.m) +
                              "x" + std::to_string(s.k) + "x" + std::to_string(s.n);
      expect_bitwise(matmul(a, b), want, "matmul " + tag);
      Matrix acc = c0;
      matmul_acc(acc, a, b);
      expect_bitwise(acc, want_acc, "matmul_acc " + tag);
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

    Matrix w_add, w_sub, w_mul, w_scale, w_relu, w_rowvec, w_rows, w_acc, w_axpy;
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
      w_axpy = a;
      axpy(w_axpy, -0.3F, b);
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
      t = a;
      axpy(t, -0.3F, b);
      expect_bitwise(t, w_axpy, "axpy " + tag);
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
    Matrix acc0(2, 9);
    for (std::size_t i = 0; i < acc0.size(); ++i) acc0.data()[i] = -0.0F;
    Matrix acc_res = acc0;
    matmul_acc(acc_res, a, b);
    for (int j = 0; j < 9; ++j) {
      EXPECT_EQ(0.0F, acc_res.at(0, j)) << tag;
      EXPECT_TRUE(std::signbit(acc_res.at(0, j)))
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

TEST(KernelDispatch, Bf16RoundTripAndRounding) {
  // Values already on the bf16 grid decode back exactly.
  for (const float v : {0.0F, 1.0F, -2.0F, 0.5F, -0.375F, 256.0F}) {
    EXPECT_EQ(v, bf16_to_float(bf16_from_float(v)));
    EXPECT_EQ(v, bf16_round(v));
  }
  // Sign of zero survives.
  EXPECT_TRUE(std::signbit(bf16_round(-0.0F)));
  EXPECT_FALSE(std::signbit(bf16_round(0.0F)));
  // Infinities are representable; NaN stays NaN.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(kInf, bf16_round(kInf));
  EXPECT_EQ(-kInf, bf16_round(-kInf));
  EXPECT_TRUE(std::isnan(bf16_round(std::numeric_limits<float>::quiet_NaN())));
  // Round-to-nearest-even at the midpoint: bf16 keeps 7 mantissa bits, so
  // 1 + 2^-8 is exactly between bf16(1.0) and bf16(1 + 2^-7); ties go to
  // the even mantissa (1.0).
  EXPECT_EQ(1.0F, bf16_round(1.0F + 0x1p-8F));
  // Just above the midpoint rounds up.
  EXPECT_EQ(1.0F + 0x1p-7F, bf16_round(1.0F + 0x1p-8F + 0x1p-15F));
  // The next midpoint (odd mantissa below) rounds UP to even.
  EXPECT_EQ(1.0F + 0x1p-6F, bf16_round(1.0F + 0x1p-7F + 0x1p-8F));
  // Relative error bound 2^-8 for normal values.
  util::Rng rng(505);
  const Matrix m = normal(16, 16, 3.0F, rng);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const float v = m.data()[i];
    EXPECT_LE(std::abs(bf16_round(v) - v), std::abs(v) * 0x1p-8F) << v;
  }
  // Idempotence: rounding is a projection.
  for (std::size_t i = 0; i < m.size(); ++i)
    EXPECT_EQ(bf16_round(m.data()[i]), bf16_round(bf16_round(m.data()[i])));
}

// The guarantee the Engine's bf16 mode rests on: serving from the packed
// shadow is bitwise the same as serving fp32 weights that sit on the bf16
// grid — on every backend, every shape, every thread count covered above.
TEST(KernelDispatch, MatmulBf16EqualsRoundedFp32Bitwise) {
  util::Rng rng(606);
  for (const Shape& s : kShapes) {
    const Matrix a = salted(s.m, s.k, rng, 41);
    const Matrix w = normal(s.k, s.n, 1.0F, rng);
    const Bf16Matrix wq = to_bf16(w);
    Matrix w_rounded = w;
    bf16_round_inplace(w_rounded);
    expect_bitwise(from_bf16(wq), w_rounded, "decode == rounded");

    Matrix want;
    {
      ScopedLevel scalar(SimdLevel::kScalar);
      want = matmul(a, w_rounded);
    }
    for (SimdLevel l : runnable_levels()) {
      ScopedLevel level(l);
      const std::string tag = std::string(simd::level_name(l)) + " " + std::to_string(s.m) +
                              "x" + std::to_string(s.k) + "x" + std::to_string(s.n);
      expect_bitwise(matmul_bf16(a, wq), want, "matmul_bf16 " + tag);
      expect_bitwise(matmul(a, w_rounded), want, "matmul rounded " + tag);
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
  EXPECT_STREQ("fp32", precision_name(Precision::kFp32));
  EXPECT_STREQ("bf16", precision_name(Precision::kBf16));
  // The scalar level is always runnable and force-able.
  EXPECT_TRUE(simd::available(SimdLevel::kScalar));
  const SimdLevel prev = simd::set_level(SimdLevel::kScalar);
  EXPECT_EQ(SimdLevel::kScalar, simd::active());
  simd::set_level(prev);
}

// End-to-end: a bf16 Engine reproduces the fp32 Engine's predictions within
// a measured bound on the Table II/III eval metric, and its clones serve
// bit-exactly (the shadow rebuild in clone_model works).
TEST(KernelDispatch, EngineBf16AccuracyAndCloneParity) {
  // Weight-space rounding is 2^-8 relative; through dim=12 x 3 iterations of
  // sigmoid/tanh-bounded propagation the observed prediction delta stays
  // well under 1e-2 on the [0, 1] probability outputs.
  constexpr float kPredBound = 1e-2F;

  const deepgate::CircuitGraph g = deepgate::prepare(dg::data::gen_squarer(4), 2000, 9);

  deepgate::Options fp32_opts;
  fp32_opts.model.dim = 12;
  fp32_opts.model.iterations = 3;
  fp32_opts.model.mlp_hidden = 8;
  fp32_opts.model.seed = 11;
  fp32_opts.precision = Precision::kFp32;
  deepgate::Options bf16_opts = fp32_opts;
  bf16_opts.precision = Precision::kBf16;

  const deepgate::Engine fp32_engine(fp32_opts);
  const deepgate::Engine bf16_engine(bf16_opts);

  const std::vector<float> p_fp32 = fp32_engine.predict_probabilities(g);
  const std::vector<float> p_bf16 = bf16_engine.predict_probabilities(g);
  ASSERT_EQ(p_fp32.size(), p_bf16.size());
  float max_delta = 0.0F;
  for (std::size_t i = 0; i < p_fp32.size(); ++i)
    max_delta = std::max(max_delta, std::abs(p_fp32[i] - p_bf16[i]));
  EXPECT_LE(max_delta, kPredBound);
  EXPECT_GT(max_delta, 0.0F) << "bf16 rounding should be observable";

  // Eval metric (avg prediction error, Eq. 8) moves by at most the
  // prediction bound.
  const double eval_fp32 = fp32_engine.evaluate({g});
  const double eval_bf16 = bf16_engine.evaluate({g});
  EXPECT_NEAR(eval_fp32, eval_bf16, kPredBound);

  // Clone parity: the replica a serve lane would use is bit-exact with the
  // engine's own forward.
  const auto clone = bf16_engine.clone_model();
  dg::nn::NoGradGuard no_grad;
  const Matrix clone_pred = clone->forward_outputs(g).prediction.value();
  for (std::size_t i = 0; i < p_bf16.size(); ++i)
    EXPECT_EQ(p_bf16[i], clone_pred.at(static_cast<int>(i), 0)) << i;
}

/// RAII: force the fast-math overlay, restore the previous setting on exit.
class ScopedFastMath {
 public:
  explicit ScopedFastMath(bool on) : prev_(simd::set_fast_math(on)) {}
  ~ScopedFastMath() { simd::set_fast_math(prev_); }

 private:
  bool prev_;
};

// The DEEPGATE_FAST_MATH overlay must be strictly opt-in, ride the avx2
// level only, and leave scalar/generic untouched.
TEST(KernelDispatch, FastMathOverlayInstallsOnlyOnAvx2) {
  if (dg::util::env_str("DEEPGATE_FAST_MATH") != "on") {
    EXPECT_FALSE(simd::fast_math()) << "fast math must default to off";
  }

  ScopedFastMath fm(true);
  EXPECT_TRUE(simd::fast_math());
  {
    ScopedLevel scalar(SimdLevel::kScalar);
    EXPECT_STREQ("scalar", backend().name);
  }
  {
    ScopedLevel generic(SimdLevel::kGeneric);
    EXPECT_STREQ("generic", backend().name);
  }
  if (simd::available(SimdLevel::kAvx2)) {
    ScopedLevel avx2(SimdLevel::kAvx2);
    EXPECT_STREQ("avx2_fma", backend().name);
    // Toggling off re-publishes the bitwise avx2 table for the same level.
    ScopedFastMath off(false);
    EXPECT_STREQ("avx2", backend().name);
  }
}

// The fast-math matmul family carries a tolerance bound instead of the
// bitwise contract: one FMA rounding per mul+add step, so the deviation from
// the scalar oracle is a few ulps of the accumulated magnitude. The
// zero-skip semantics (exact zeros skipped, Inf/NaN in skipped rows never
// leak) must survive unchanged — they are value semantics, not rounding.
TEST(KernelDispatch, FastMathMatmulFamilyWithinTolerance) {
  if (!simd::available(SimdLevel::kAvx2)) GTEST_SKIP() << "no avx2 on this build/CPU";

  const auto expect_close = [](const Matrix& got, const Matrix& want, const std::string& what) {
    ASSERT_TRUE(got.same_shape(want)) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const float w = want.data()[i];
      EXPECT_NEAR(w, got.data()[i], 1e-4F * (1.0F + std::abs(w))) << what << " i=" << i;
    }
  };

  util::Rng rng(707);
  // Includes n == 1 columns (the matvec_rows path) beyond kShapes' coverage.
  const Shape fma_shapes[] = {{1, 1, 1}, {7, 13, 17}, {5, 64, 96}, {9, 13, 1},
                              {2, 10, 100}, {33, 24, 1}};
  for (const Shape& s : fma_shapes) {
    const Matrix a = salted(s.m, s.k, rng, 53);
    const Matrix b = normal(s.k, s.n, 1.0F, rng);
    const Matrix at = normal(s.k, s.m, 1.0F, rng);
    const Matrix c0 = normal(s.m, s.n, 1.0F, rng);
    const Bf16Matrix wq = to_bf16(b);

    Matrix want, want_acc, want_tn, want_bf16, want_axpy;
    {
      ScopedLevel scalar(SimdLevel::kScalar);
      want = matmul(a, b);
      want_acc = c0;
      matmul_acc(want_acc, a, b);
      want_tn = matmul_tn(at, b);
      want_bf16 = matmul_bf16(a, wq);
      want_axpy = c0;
      axpy(want_axpy, -0.3F, c0);
    }

    ScopedLevel avx2(SimdLevel::kAvx2);
    ScopedFastMath fm(true);
    const std::string tag = std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                            std::to_string(s.n);
    expect_close(matmul(a, b), want, "fma matmul " + tag);
    Matrix acc_res = c0;
    matmul_acc(acc_res, a, b);
    expect_close(acc_res, want_acc, "fma matmul_acc " + tag);
    expect_close(matmul_tn(at, b), want_tn, "fma matmul_tn " + tag);
    expect_close(matmul_bf16(a, wq), want_bf16, "fma matmul_bf16 " + tag);
    Matrix axpy_res = c0;
    axpy(axpy_res, -0.3F, c0);
    expect_close(axpy_res, want_axpy, "fma axpy " + tag);
  }

  // Zero-skip property under FMA contraction.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  Matrix a(2, 2);
  a.at(0, 0) = 0.0F;
  a.at(0, 1) = -0.0F;
  a.at(1, 0) = 1.0F;
  a.at(1, 1) = 0.0F;
  Matrix b(2, 9);
  for (int j = 0; j < 9; ++j) {
    b.at(0, j) = 2.0F + static_cast<float>(j);
    b.at(1, j) = (j % 2 == 0) ? kInf : kNan;
  }
  ScopedLevel avx2(SimdLevel::kAvx2);
  ScopedFastMath fm(true);
  const Matrix c = matmul(a, b);
  for (int j = 0; j < 9; ++j) {
    EXPECT_EQ(0.0F, c.at(0, j)) << "all-zero A row must stay exact zero";
    EXPECT_FALSE(std::signbit(c.at(0, j)));
    EXPECT_EQ(2.0F + static_cast<float>(j), c.at(1, j))
        << "Inf/NaN in the skipped B row must not leak";
  }
}

// End-to-end: an Engine forward under the fast-math overlay stays within a
// small tolerance of the bitwise avx2 path on [0, 1] probability outputs.
TEST(KernelDispatch, FastMathEnginePredictionsWithinTolerance) {
  if (!simd::available(SimdLevel::kAvx2)) GTEST_SKIP() << "no avx2 on this build/CPU";

  const deepgate::CircuitGraph g = deepgate::prepare(dg::data::gen_squarer(4), 2000, 9);
  deepgate::Options opts;
  opts.model.dim = 12;
  opts.model.iterations = 3;
  opts.model.mlp_hidden = 8;
  opts.model.seed = 11;
  const deepgate::Engine engine(opts);

  ScopedLevel avx2(SimdLevel::kAvx2);
  std::vector<float> ref, fast;
  {
    ScopedFastMath off(false);
    ref = engine.predict_probabilities(g);
  }
  {
    ScopedFastMath on(true);
    fast = engine.predict_probabilities(g);
  }
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(ref[i], fast[i], 1e-4F) << i;
}

}  // namespace
}  // namespace dg::nn::kern
