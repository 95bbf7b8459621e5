#include "gnn/posenc.hpp"

#include <algorithm>
#include <cmath>

namespace dg::gnn {

void write_positional_encoding(nn::Matrix& out, int row, int level_diff, int L) {
  const double pi = 3.14159265358979323846;
  const double d = static_cast<double>(std::clamp(level_diff, 0, kMaxPosencDistance)) /
                   static_cast<double>(kMaxPosencDistance);
  double freq = 1.0;
  for (int l = 0; l < L; ++l) {
    out.at(row, 2 * l) = static_cast<float>(std::sin(freq * pi * d));
    out.at(row, 2 * l + 1) = static_cast<float>(std::cos(freq * pi * d));
    freq *= 2.0;
  }
}

}  // namespace dg::gnn
