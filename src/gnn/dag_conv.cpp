// DAG-ConvGNN baseline (Eq. 3): L stacked layers with per-layer parameters.
// Within a layer, levels are processed in topological order and aggregation
// reads the CURRENT layer's already-updated predecessor states; there is no
// reversed propagation and no recurrence.
#include "gnn/models.hpp"

namespace dg::gnn {
namespace {

class DagConvModel final : public Model {
 public:
  explicit DagConvModel(const ModelConfig& cfg_in) : Model(cfg_in) {
    cfg_.use_skip = false;
    cfg_.refeed_input = false;  // h0 = x padded, per the pre-DeepGate designs
    cfg_.random_h0 = false;
    require_one_hot_fits(cfg_);
    util::Rng rng(cfg_.seed);
    for (int l = 0; l < cfg_.iterations; ++l)
      layers_.emplace_back(cfg_, /*reversed=*/false, rng);
    regressor_ = Regressor(cfg_.num_types, cfg_.dim, cfg_.mlp_hidden, rng);
  }

  ForwardOutputs forward_outputs(const CircuitGraph& g, int /*iterations*/) const override {
    return run_layered_forward(g, sweeps(), regressor_, cfg_);
  }

  std::unique_ptr<Model> clone() const override {
    auto copy = std::make_unique<DagConvModel>(cfg_);
    copy_params(*this, *copy);
    return copy;
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const override {
    for (std::size_t l = 0; l < layers_.size(); ++l)
      layers_[l].collect(out, prefix + ".layer" + std::to_string(l));
    regressor_.collect(out, prefix + ".regressor");
  }

  const char* name() const override { return "DAG-ConvGNN"; }

 private:
  /// The stacked layers in order; each layer's queries (h^{l-1}) are the
  /// states at its entry.
  std::vector<const DirectedLayer*> sweeps() const {
    std::vector<const DirectedLayer*> out;
    out.reserve(layers_.size());
    for (const auto& layer : layers_) out.push_back(&layer);
    return out;
  }

  std::vector<DirectedLayer> layers_;
  Regressor regressor_;
};

}  // namespace

std::unique_ptr<Model> make_dag_conv(const ModelConfig& cfg) {
  return std::make_unique<DagConvModel>(cfg);
}

}  // namespace dg::gnn
