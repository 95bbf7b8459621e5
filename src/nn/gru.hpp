// Gated recurrent unit cell — the COMBINE function of DeepGate (Eq. 6).
//
//   z = sigmoid(x Wz + h Uz + bz)        update gate
//   r = sigmoid(x Wr + h Ur + br)        reset gate
//   n = tanh  (x Wn + r o (h Un) + bn)   candidate state
//   h' = (1 - z) o n + z o h
//
// All rows of a topological level are processed as one batch (N x I inputs,
// N x H states).
//
// Two paths compute the same bits. forward() is the taped composition of nn
// ops: the grad path, and the oracle the no-grad path is tested against in
// tests/gru_test.cpp. The no-grad path is the fused step in two calls:
// hidden_products() writes the three hidden-side products h Uz, h Ur and
// h Un, and step_no_grad() does the rest. The split lets a caller compute a
// level's hidden-side products ahead of time on another thread, since they
// read only h (gnn/model_common.cpp does this on an idle pool lane). Both
// halves read h and write through raw row pointers, so a level's rows of a
// state table are updated in place. The step writes its input-side matmuls
// into three work buffers the caller provides and runs each gate's add,
// bias add, sigmoid/tanh and blend in place through the active kernel
// backend in exactly the taped order, writing h' last. A level step then
// allocates nothing instead of twenty buffers and tape nodes, which is most
// of its overhead on the thin levels (a few rows) that dominate a forward.
#pragma once

#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"

#include <cstdint>

namespace dg::nn {

class GruCell {
 public:
  GruCell() = default;
  GruCell(int input_size, int hidden_size, util::Rng& rng);

  /// x: N x input, h: N x hidden -> new hidden N x hidden, as taped nn ops.
  /// Under NoGradGuard it runs the same ops untaped; the no-grad forward
  /// calls hidden_products + step_no_grad instead (see above).
  Tensor forward(const Tensor& x, const Tensor& h) const;

  /// First half of the fused step: h Uz, h Ur and h Un for the `rows` x
  /// hidden rows at `h`, each written from zero, back to back into `out`
  /// (3 * rows * hidden floats). Allocates nothing and touches no
  /// thread-local state, so any thread may run it.
  void hidden_products(const float* h, int rows, float* out) const;

  /// Second half: h' for the x.rows() x hidden rows at `h`, from `products`
  /// = hidden_products(h), written to `out`. `out` may be `h`: every read
  /// of h comes before the first write to out. `work` holds 3 * x.rows() *
  /// hidden floats of scratch. `update_rows` (nullptr = every row) leaves
  /// out's rows with a 0 entry unwritten. `x` holds the first x.cols()
  /// input columns. When that is fewer than input_size(), row r's
  /// remaining columns are a one-hot with its 1 at column x.cols() +
  /// onehot[r] (`onehot` is unread otherwise). The one-hot is folded in as
  /// an add of the matching weight row after the x product, which is
  /// bitwise the full product: the zero-skipping k-order matmul skips the
  /// zeros and adds 1 * w last.
  void step_no_grad(const Matrix& x, const int* onehot, const float* h, const float* products,
                    float* work, const std::uint8_t* update_rows, float* out) const;

  void collect(NamedParams& out, const std::string& prefix) const;

  int input_size() const { return input_; }
  int hidden_size() const { return hidden_; }

 private:
  int input_ = 0;
  int hidden_ = 0;
  Tensor wz_, uz_, bz_;
  Tensor wr_, ur_, br_;
  Tensor wn_, un_, bn_;
};

}  // namespace dg::nn
