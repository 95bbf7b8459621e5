// GCN baseline: the circuit graph is treated as UNDIRECTED (the paper's
// weakest baseline — it discards logic direction entirely). L stacked layers,
// each aggregating neighbor messages over the whole graph at once and
// combining with a per-layer linear + ReLU.
#include "gnn/models.hpp"

#include "nn/ops.hpp"

namespace dg::gnn {
namespace {

using nn::Tensor;

class GcnModel final : public Model {
 public:
  explicit GcnModel(const ModelConfig& cfg) : Model(cfg) {
    util::Rng rng(cfg.seed);
    for (int l = 0; l < cfg.iterations; ++l) {
      aggs_.push_back(make_aggregator(cfg.agg, cfg.dim, 2 * cfg.pe_L, rng));
      combines_.emplace_back(2 * cfg.dim, cfg.dim, rng);
    }
    regressor_ = Regressor(cfg.num_types, cfg.dim, cfg.mlp_hidden, rng);
  }

  ForwardOutputs forward_outputs(const CircuitGraph& g, int /*iterations*/) const override {
    count_full_forward();
    Tensor h = init_full_state(g, cfg_.dim, /*random_init=*/false, cfg_.seed);
    const Tensor inv_deg = nn::constant(
        nn::Matrix::from_vector(g.num_nodes, 1, std::vector<float>(g.und_inv_deg)));
    Tensor pe;  // undefined: GCN has no skip-edge attributes
    for (std::size_t l = 0; l < aggs_.size(); ++l) {
      const Tensor h_src = nn::gather_rows(h, g.und_src);
      const Tensor m = aggs_[l]->forward(h_src, h, g.und_dst, g.num_nodes, inv_deg, pe);
      h = nn::relu(combines_[l].forward(nn::concat_cols(h, m)));
    }
    return {regressor_.forward(h, g), h};
  }

  std::unique_ptr<Model> clone() const override {
    auto copy = std::make_unique<GcnModel>(cfg_);
    copy_params(*this, *copy);
    return copy;
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const override {
    for (std::size_t l = 0; l < aggs_.size(); ++l) {
      aggs_[l]->collect(out, prefix + ".layer" + std::to_string(l) + ".agg");
      combines_[l].collect(out, prefix + ".layer" + std::to_string(l) + ".combine");
    }
    regressor_.collect(out, prefix + ".regressor");
  }

  const char* name() const override { return "GCN"; }

 private:
  std::vector<std::unique_ptr<Aggregator>> aggs_;
  std::vector<nn::Linear> combines_;
  Regressor regressor_;
};

}  // namespace

std::unique_ptr<Model> make_gcn(const ModelConfig& cfg) {
  return std::make_unique<GcnModel>(cfg);
}

}  // namespace dg::gnn
