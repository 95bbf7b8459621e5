// Recurrent DAG propagation (Eq. 4) — the shared engine behind both the
// DAG-RecGNN baseline and DeepGate itself. One forward layer followed by one
// reversed layer (separate parameters, Sec. III-C), applied T times; queries
// for the attention aggregator are the states at entry of each directional
// sweep (h^{t-1} of Eq. 5). The level loop itself is run_layered_forward.
#include "gnn/models.hpp"

namespace dg::gnn {
namespace {

class RecurrentDagModel final : public Model {
 public:
  RecurrentDagModel(const ModelConfig& cfg_in, const char* display_name)
      : Model(cfg_in), name_(display_name) {
    if (!cfg_.random_h0) require_one_hot_fits(cfg_);
    util::Rng rng(cfg_.seed);
    fwd_ = std::make_unique<DirectedLayer>(cfg_, /*reversed=*/false, rng);
    if (cfg_.reverse) rev_ = std::make_unique<DirectedLayer>(cfg_, /*reversed=*/true, rng);
    regressor_ = Regressor(cfg_.num_types, cfg_.dim, cfg_.mlp_hidden, rng);
  }

  ForwardOutputs forward_outputs(const CircuitGraph& g, int iterations) const override {
    return run_layered_forward(g, sweeps(effective_iterations(iterations)), regressor_, cfg_);
  }

  int effective_iterations(int requested) const override {
    return requested > 0 ? requested : cfg_.iterations;
  }

  std::unique_ptr<Model> clone() const override {
    auto copy = std::make_unique<RecurrentDagModel>(cfg_, name_);
    copy_params(*this, *copy);
    return copy;
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const override {
    fwd_->collect(out, prefix + ".fwd");
    if (rev_) rev_->collect(out, prefix + ".rev");
    regressor_.collect(out, prefix + ".regressor");
  }

  const char* name() const override { return name_; }

 private:
  /// One forward layer followed by one reversed layer, `iterations` times.
  std::vector<const DirectedLayer*> sweeps(int iterations) const {
    std::vector<const DirectedLayer*> out;
    out.reserve(static_cast<std::size_t>(iterations) * (rev_ ? 2 : 1));
    for (int t = 0; t < iterations; ++t) {
      out.push_back(fwd_.get());
      if (rev_) out.push_back(rev_.get());
    }
    return out;
  }

  const char* name_;
  std::unique_ptr<DirectedLayer> fwd_;
  std::unique_ptr<DirectedLayer> rev_;
  Regressor regressor_;
};

}  // namespace

std::unique_ptr<Model> make_dag_rec(const ModelConfig& cfg_in) {
  ModelConfig cfg = cfg_in;
  // The pre-DeepGate recurrent design: h0 carries the gate type (x-padded),
  // no refeed, no skip connections.
  cfg.use_skip = false;
  cfg.refeed_input = false;
  cfg.random_h0 = false;
  return std::make_unique<RecurrentDagModel>(cfg, "DAG-RecGNN");
}

std::unique_ptr<Model> make_deepgate(const ModelConfig& cfg_in) {
  ModelConfig cfg = cfg_in;
  cfg.agg = AggKind::kAttention;
  cfg.refeed_input = true;
  cfg.random_h0 = true;
  cfg.reverse = true;
  return std::make_unique<RecurrentDagModel>(cfg, "DeepGate");
}

std::unique_ptr<Model> make_recurrent_custom(const ModelConfig& cfg) {
  return std::make_unique<RecurrentDagModel>(cfg, "DeepGate-custom");
}

}  // namespace dg::gnn
