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
// Two paths compute the same bits. Under gradient recording, forward() is
// the taped composition of nn ops (the grad path, and the oracle the no-grad
// path is tested against in tests/gru_test.cpp). Under NoGradGuard it runs
// the fused step: the six matmuls write into three work buffers, one of
// which becomes the output, and each gate's add, bias add, sigmoid/tanh and
// blend runs in place through the active kernel backend in exactly the
// taped order. A level step then costs three buffers and one tape node
// instead of twenty of each, which is most of its overhead on the thin
// levels (a few rows) that dominate a forward.
#pragma once

#include "nn/module.hpp"
#include "nn/ops.hpp"
#include "util/rng.hpp"

namespace dg::nn {

class GruCell {
 public:
  GruCell() = default;
  GruCell(int input_size, int hidden_size, util::Rng& rng);

  /// x: N x input, h: N x hidden -> new hidden N x hidden. Fused when
  /// gradients are off (see above); bitwise equal either way.
  Tensor forward(const Tensor& x, const Tensor& h) const;

  void collect(NamedParams& out, const std::string& prefix) const;

  int input_size() const { return input_; }
  int hidden_size() const { return hidden_; }

 private:
  Matrix forward_no_grad(const Matrix& x, const Matrix& h) const;

  int input_ = 0;
  int hidden_ = 0;
  Tensor wz_, uz_, bz_;
  Tensor wr_, ur_, br_;
  Tensor wn_, un_, bn_;
};

}  // namespace dg::nn
