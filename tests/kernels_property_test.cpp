// Property sweep: every numeric kernel is checked against a naive reference
// implementation over a grid of shapes and random seeds. The kernels are the
// trust base of the whole NN stack (autograd adjoints are built from them),
// so they get reference-level verification, not just spot examples.
#include "nn/kernels.hpp"

#include "nn/init.hpp"
#include "util/rng.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace dg::nn::kern {
namespace {

struct Shape {
  int m, k, n;
  std::uint64_t seed;
};

class KernelSweep : public ::testing::TestWithParam<Shape> {};

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int p = 0; p < a.cols(); ++p)
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

void expect_close(const Matrix& a, const Matrix& b, float tol = 2e-4F) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a.data()[i], b.data()[i], tol * (1.0F + std::abs(b.data()[i])));
}

TEST_P(KernelSweep, MatmulMatchesReference) {
  const auto& p = GetParam();
  util::Rng rng(p.seed);
  const Matrix a = normal(p.m, p.k, 1.0F, rng);
  const Matrix b = normal(p.k, p.n, 1.0F, rng);
  expect_close(matmul(a, b), naive_matmul(a, b));
}

TEST_P(KernelSweep, TransposedVariantsMatchReference) {
  const auto& p = GetParam();
  util::Rng rng(p.seed + 7);
  // matmul_tn(a, b) with a: k x m computes a^T b.
  const Matrix a = normal(p.k, p.m, 1.0F, rng);
  const Matrix b = normal(p.k, p.n, 1.0F, rng);
  Matrix at(p.m, p.k);
  for (int i = 0; i < p.k; ++i)
    for (int j = 0; j < p.m; ++j) at.at(j, i) = a.at(i, j);
  expect_close(matmul_tn(a, b), naive_matmul(at, b));

  const Matrix c = normal(p.m, p.k, 1.0F, rng);
  const Matrix d = normal(p.n, p.k, 1.0F, rng);
  Matrix dt(p.k, p.n);
  for (int i = 0; i < p.n; ++i)
    for (int j = 0; j < p.k; ++j) dt.at(j, i) = d.at(i, j);
  expect_close(matmul_nt(c, d), naive_matmul(c, dt));
}

TEST_P(KernelSweep, GatherScatterAdjointIdentity) {
  // For any index map idx: sum(gather(A, idx) * B) == sum(A * scatter(B, idx))
  // — the adjoint identity that makes the autograd pair correct.
  const auto& p = GetParam();
  util::Rng rng(p.seed + 19);
  const Matrix a = normal(p.m, p.k, 1.0F, rng);
  std::vector<int> idx(static_cast<std::size_t>(p.n));
  for (auto& i : idx) i = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p.m)));
  const Matrix b = normal(p.n, p.k, 1.0F, rng);

  const float lhs = sum_all(mul(gather_rows(a, idx), b));
  const float rhs = sum_all(mul(a, scatter_add_rows(b, idx, p.m)));
  EXPECT_NEAR(lhs, rhs, 1e-3F * (1.0F + std::abs(lhs)));
}

TEST_P(KernelSweep, ColSumConsistency) {
  const auto& p = GetParam();
  util::Rng rng(p.seed + 23);
  const Matrix a = normal(p.m, p.n, 1.0F, rng);
  EXPECT_NEAR(sum_all(col_sum(a)), sum_all(a), 1e-3F * (1.0F + std::abs(sum_all(a))));
}

INSTANTIATE_TEST_SUITE_P(Shapes, KernelSweep,
                         ::testing::Values(Shape{1, 1, 1, 1}, Shape{1, 7, 3, 2},
                                           Shape{5, 1, 4, 3}, Shape{4, 4, 4, 4},
                                           Shape{8, 3, 9, 5}, Shape{13, 17, 11, 6},
                                           Shape{32, 32, 32, 7}, Shape{2, 64, 2, 8}));

TEST(KernelEdge, ZeroSkipInMatmulIsCorrect) {
  // The i-k-j kernel skips zero multipliers; verify a sparse matrix still
  // multiplies exactly.
  Matrix a = Matrix::zeros(3, 3);
  a.at(0, 2) = 2.0F;
  a.at(2, 0) = -1.0F;
  util::Rng rng(9);
  const Matrix b = normal(3, 3, 1.0F, rng);
  expect_close(matmul(a, b), naive_matmul(a, b));
}

TEST(KernelEdge, EmptyRowDimensions) {
  const Matrix a(0, 4);
  const Matrix b(4, 3);
  const Matrix c = matmul(a, b);
  EXPECT_EQ(c.rows(), 0);
  EXPECT_EQ(c.cols(), 3);
  const Matrix g = gather_rows(b, {});
  EXPECT_EQ(g.rows(), 0);
}

}  // namespace
}  // namespace dg::nn::kern
