#include "gnn/posenc.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace dg::gnn {
namespace {

/// gamma(D) as a 1 x 2L row, written the way the attention table is.
nn::Matrix gamma(int level_diff, int L) {
  nn::Matrix m(1, 2 * L);
  write_positional_encoding(m, 0, level_diff, L);
  return m;
}

TEST(Posenc, ZeroDistanceIsSinZeroCosOne) {
  const nn::Matrix m = gamma(0, 4);
  for (int l = 0; l < 4; ++l) {
    EXPECT_NEAR(m.at(0, 2 * l), 0.0F, 1e-6F);      // sin
    EXPECT_NEAR(m.at(0, 2 * l + 1), 1.0F, 1e-6F);  // cos
  }
}

TEST(Posenc, ValuesBounded) {
  for (int d = 0; d < 100; d += 7) {
    const nn::Matrix m = gamma(d, 8);
    for (int c = 0; c < m.cols(); ++c) {
      EXPECT_GE(m.at(0, c), -1.0F);
      EXPECT_LE(m.at(0, c), 1.0F);
    }
  }
}

TEST(Posenc, DistinctDistancesDistinctCodes) {
  // The normalization keeps nearby integer distances distinguishable — the
  // degenerate raw-integer form of Eq. (7) would make these identical.
  const nn::Matrix a = gamma(2, 8);
  const nn::Matrix b = gamma(4, 8);
  float diff = 0.0F;
  for (int c = 0; c < a.cols(); ++c) diff += std::abs(a.at(0, c) - b.at(0, c));
  EXPECT_GT(diff, 0.1F);
}

TEST(Posenc, ClampsBeyondMaxDistance) {
  const nn::Matrix a = gamma(kMaxPosencDistance, 8);
  const nn::Matrix b = gamma(kMaxPosencDistance + 50, 8);
  for (int c = 0; c < a.cols(); ++c) EXPECT_FLOAT_EQ(a.at(0, c), b.at(0, c));
}

TEST(Posenc, MatchesEquationForm) {
  // gamma(D) = (sin(2^0 pi d'), cos(2^0 pi d'), sin(2^1 pi d'), ...)
  const int D = 16, L = 8;
  const double dprime = static_cast<double>(D) / kMaxPosencDistance;
  const nn::Matrix m = gamma(D, L);
  double freq = 1.0;
  for (int l = 0; l < L; ++l) {
    EXPECT_NEAR(m.at(0, 2 * l), std::sin(freq * M_PI * dprime), 1e-5);
    EXPECT_NEAR(m.at(0, 2 * l + 1), std::cos(freq * M_PI * dprime), 1e-5);
    freq *= 2.0;
  }
}

TEST(Posenc, WritesOnlyItsRow) {
  nn::Matrix m(3, 16);
  m.fill(7.0F);
  write_positional_encoding(m, 1, 5, 8);
  const nn::Matrix expected = gamma(5, 8);
  for (int c = 0; c < 16; ++c) {
    EXPECT_FLOAT_EQ(m.at(1, c), expected.at(0, c));
    EXPECT_FLOAT_EQ(m.at(0, c), 7.0F);  // other rows untouched
    EXPECT_FLOAT_EQ(m.at(2, c), 7.0F);
  }
}

}  // namespace
}  // namespace dg::gnn
