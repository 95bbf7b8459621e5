// Multi-layer perceptron with ReLU hidden activations and a selectable
// output activation. DeepGate's regressor heads (one per gate type, Sec.
// III-C "Regressor") are instances with a sigmoid output so predictions stay
// inside the [0, 1] probability range.
#pragma once

#include "nn/linear.hpp"

#include <vector>

namespace dg::nn {

enum class OutputActivation { kNone, kSigmoid, kRelu };

class Mlp {
 public:
  Mlp() = default;
  /// `dims` = {in, hidden..., out}; requires at least {in, out}.
  Mlp(const std::vector<int>& dims, OutputActivation out_act, util::Rng& rng);

  Tensor forward(const Tensor& x) const;

  void collect(NamedParams& out, const std::string& prefix) const;

 private:
  std::vector<Linear> layers_;
  OutputActivation out_act_ = OutputActivation::kNone;
};

}  // namespace dg::nn
