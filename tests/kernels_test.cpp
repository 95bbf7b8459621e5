#include "nn/kernels.hpp"

#include "nn/init.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace dg::nn::kern {
namespace {

Matrix mk(int r, int c, std::initializer_list<float> v) {
  return Matrix::from_vector(r, c, std::vector<float>(v));
}

void expect_eq(const Matrix& a, const Matrix& b, float tol = 1e-5F) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a.data()[i], b.data()[i], tol);
}

TEST(Kernels, MatmulSmall) {
  const Matrix a = mk(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = mk(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = matmul(a, b);
  expect_eq(c, mk(2, 2, {58, 64, 139, 154}));
}

TEST(Kernels, MatmulIdentity) {
  util::Rng rng(1);
  const Matrix a = normal(4, 4, 1.0F, rng);
  Matrix eye(4, 4);
  for (int i = 0; i < 4; ++i) eye.at(i, i) = 1.0F;
  expect_eq(matmul(a, eye), a);
  expect_eq(matmul(eye, a), a);
}

TEST(Kernels, MatmulTransposedVariantsAgree) {
  util::Rng rng(2);
  const Matrix a = normal(5, 3, 1.0F, rng);
  const Matrix b = normal(5, 4, 1.0F, rng);
  // a^T b via matmul_tn must equal explicit transpose multiply.
  Matrix at(3, 5);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  expect_eq(matmul_tn(a, b), matmul(at, b));

  const Matrix c = normal(4, 3, 1.0F, rng);
  Matrix ct(3, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j) ct.at(j, i) = c.at(i, j);
  const Matrix x = normal(2, 3, 1.0F, rng);
  expect_eq(matmul_nt(x, c), matmul(x, ct));
}

TEST(Kernels, ElementwiseOps) {
  const Matrix a = mk(1, 3, {1, -2, 3});
  const Matrix b = mk(1, 3, {4, 5, -6});
  expect_eq(add(a, b), mk(1, 3, {5, 3, -3}));
  expect_eq(sub(a, b), mk(1, 3, {-3, -7, 9}));
  expect_eq(mul(a, b), mk(1, 3, {4, -10, -18}));
  expect_eq(scale(a, -2.0F), mk(1, 3, {-2, 4, -6}));
}

TEST(Kernels, AddRowvecBroadcasts) {
  const Matrix a = mk(2, 2, {1, 2, 3, 4});
  const Matrix b = mk(1, 2, {10, 20});
  expect_eq(add_rowvec(a, b), mk(2, 2, {11, 22, 13, 24}));
}

TEST(Kernels, ScaleRows) {
  const Matrix a = mk(2, 2, {1, 2, 3, 4});
  const Matrix s = mk(2, 1, {2, -1});
  expect_eq(scale_rows(a, s), mk(2, 2, {2, 4, -3, -4}));
}

TEST(Kernels, Activations) {
  const Matrix a = mk(1, 3, {0, 100, -100});
  const Matrix sig = sigmoid(a);
  EXPECT_NEAR(sig.at(0, 0), 0.5F, 1e-6F);
  EXPECT_NEAR(sig.at(0, 1), 1.0F, 1e-6F);
  EXPECT_NEAR(sig.at(0, 2), 0.0F, 1e-6F);
  const Matrix t = tanh_m(mk(1, 2, {0, 1000}));
  EXPECT_NEAR(t.at(0, 0), 0.0F, 1e-6F);
  EXPECT_NEAR(t.at(0, 1), 1.0F, 1e-6F);
  expect_eq(relu(mk(1, 3, {-1, 0, 2})), mk(1, 3, {0, 0, 2}));
}

TEST(Kernels, Reductions) {
  const Matrix a = mk(2, 3, {1, 2, 3, 4, 5, 6});
  expect_eq(col_sum(a), mk(1, 3, {5, 7, 9}));
  EXPECT_FLOAT_EQ(sum_all(a), 21.0F);
}

TEST(Kernels, ConcatAndSliceRoundTrip) {
  const Matrix a = mk(2, 2, {1, 2, 3, 4});
  const Matrix b = mk(2, 1, {9, 8});
  const Matrix c = concat_cols(a, b);
  EXPECT_EQ(c.cols(), 3);
  expect_eq(slice_cols(c, 0, 2), a);
  expect_eq(slice_cols(c, 2, 3), b);
}

TEST(Kernels, GatherScatterRoundTrip) {
  const Matrix a = mk(3, 2, {1, 2, 3, 4, 5, 6});
  const std::vector<int> idx{2, 0, 2};
  const Matrix g = gather_rows(a, idx);
  expect_eq(g, mk(3, 2, {5, 6, 1, 2, 5, 6}));
  // scatter-add sums duplicate destinations
  const Matrix s = scatter_add_rows(g, idx, 3);
  expect_eq(s, mk(3, 2, {1, 2, 0, 0, 10, 12}));
}

TEST(Kernels, RowDot) {
  const Matrix a = mk(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = mk(2, 3, {1, 1, 1, 2, 2, 2});
  expect_eq(row_dot(a, b), mk(2, 1, {6, 30}));
}

}  // namespace
}  // namespace dg::nn::kern
