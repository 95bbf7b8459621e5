// GCN baseline: the circuit graph is treated as UNDIRECTED (the paper's
// weakest baseline — it discards logic direction entirely). L stacked layers,
// each aggregating neighbor messages over the whole graph at once and
// combining with a per-layer linear + ReLU.
#include "gnn/incremental.hpp"
#include "gnn/models.hpp"

#include "nn/ops.hpp"

#include <stdexcept>

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
    return full_capture(g, nullptr, nullptr);
  }

  std::unique_ptr<Model> clone() const override {
    auto copy = std::make_unique<GcnModel>(cfg_);
    copy_params(*this, *copy);
    return copy;
  }

  std::unique_ptr<IncrementalState> make_incremental_state() const override {
    return std::make_unique<LayeredIncrementalState>();
  }

  // GCN keeps whole-graph dense states, so its incremental path memoizes one
  // N x d checkpoint per layer (stored as single-matrix "levels" in the
  // shared LevelMemo) and dirtiness spreads exactly one undirected hop per
  // layer. h0 is the type one-hot padded to d — row-local in the gate type,
  // so clean rows of a fresh h0 match the memo bitwise.
  ForwardOutputs forward_incremental(const CircuitGraph& g, IncrementalState* state,
                                     const std::vector<int>& old_of_new,
                                     IncrementalRunStats* stats) const override {
    if (nn::grad_enabled())
      throw std::logic_error("GCN forward_incremental: requires nn::NoGradGuard");
    if (g.is_batch())
      throw std::invalid_argument("GCN forward_incremental: merged batch graphs not supported");

    auto* dense = dynamic_cast<LayeredIncrementalState*>(state);
    if (dense == nullptr || !incremental_memo_enabled()) {
      // See run_layered_incremental: a stale memo must not outlive a
      // disabled query, since the session resets its identity map.
      if (dense != nullptr) dense->memo = {};
      return full_capture(g, nullptr, stats);
    }
    LevelMemo& memo = dense->memo;

    if (memo.valid && memo.snap.generation == g.generation &&
        memo.snap.num_nodes == g.num_nodes) {
      if (stats != nullptr) {
        *stats = {};
        stats->memo_hit = true;
      }
      return {nn::constant(memo.prediction), nn::constant(memo.embedding)};
    }

    const bool can_partial = memo.valid && memo.has_checkpoints &&
                             memo.checkpoints.size() == aggs_.size() + 1 &&
                             old_of_new.size() == static_cast<std::size_t>(g.num_nodes) &&
                             g.num_nodes > 0;
    if (!can_partial || checkpoint_mb(g) > incremental_memo_cap_mb()) {
      if (!can_partial && memo.valid) {
        memo.checkpoints.clear();
        memo.has_checkpoints = false;
      }
      return full_capture(g, &memo, stats);
    }

    count_partial_forward();

    DirtySeedOptions opts;
    opts.track_layout = false;  // h0 and the und arrays never read (level, pos)
    opts.track_reverse = true;  // undirected: fanout edges feed messages too
    std::vector<std::uint8_t> dirty = dirty_seeds(g, memo.snap, old_of_new, opts);

    const int n = g.num_nodes;
    const int dim = cfg_.dim;
    std::vector<std::vector<nn::Matrix>> all;
    all.reserve(aggs_.size() + 1);
    all.push_back({init_full_state(g, dim, /*random_init=*/false, cfg_.seed).value()});

    for (std::size_t l = 0; l < aggs_.size(); ++l) {
      // One-hop spread: a row's message reads its neighbors' entry states.
      std::vector<std::uint8_t> next = dirty;
      for (std::size_t i = 0; i < g.und_src.size(); ++i)
        if (dirty[static_cast<std::size_t>(g.und_src[i])] != 0)
          next[static_cast<std::size_t>(g.und_dst[i])] = 1;

      const nn::Matrix& h = all[l][0];
      nn::Matrix out(n, dim);
      std::vector<int> rows;
      for (int v = 0; v < n; ++v) {
        if (next[static_cast<std::size_t>(v)] != 0) {
          rows.push_back(v);
          continue;
        }
        const int o = old_of_new[static_cast<std::size_t>(v)];
        const float* src = memo.checkpoints[l + 1][0].row_ptr(o);
        std::copy(src, src + dim, out.row_ptr(v));
      }
      if (!rows.empty()) layer_rows(l, g, h, rows, out);
      all.push_back({std::move(out)});
      dirty = std::move(next);
    }

    const nn::Matrix& emb = all.back()[0];
    nn::Matrix pred(n, 1);
    std::vector<int> dirty_nodes;
    for (int v = 0; v < n; ++v) {
      if (dirty[static_cast<std::size_t>(v)] != 0) {
        dirty_nodes.push_back(v);
        continue;
      }
      pred.at(v, 0) = memo.prediction.at(old_of_new[static_cast<std::size_t>(v)], 0);
    }
    regressor_.forward_rows(emb, g, dirty_nodes, pred);

    if (stats != nullptr) {
      *stats = {};
      stats->partial = true;
      stats->dirty_nodes = static_cast<int>(dirty_nodes.size());
    }

    nn::Matrix emb_out = emb;
    memo.checkpoints = std::move(all);
    memo.has_checkpoints = true;
    memo.snap.capture(g);
    memo.prediction = pred;
    memo.embedding = emb_out;
    memo.valid = true;
    return {nn::constant(std::move(pred)), nn::constant(std::move(emb_out))};
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
  double checkpoint_mb(const CircuitGraph& g) const {
    return static_cast<double>(aggs_.size() + 1) * static_cast<double>(g.num_nodes) *
           static_cast<double>(cfg_.dim) * 4.0 / (1024.0 * 1024.0);
  }

  /// Recompute layer l's output for the given node rows only, reading the
  /// full layer-entry matrix `h`, and write them into `out` in place.
  /// Per-row bitwise identical to the whole-graph layer of full_capture(): the und edge
  /// selection preserves each destination's in-order message segment, and
  /// the aggregator / combine / relu kernels are row- or segment-local.
  void layer_rows(std::size_t l, const CircuitGraph& g, const nn::Matrix& h,
                  const std::vector<int>& rows, nn::Matrix& out) const {
    const int dim = h.cols();
    const int num_sel = static_cast<int>(rows.size());
    std::vector<int> rank(static_cast<std::size_t>(g.num_nodes), -1);
    for (int i = 0; i < num_sel; ++i) rank[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)])] = i;

    std::vector<int> seg_sub;
    std::vector<int> src_sel;
    for (std::size_t i = 0; i < g.und_src.size(); ++i) {
      const int r = rank[static_cast<std::size_t>(g.und_dst[i])];
      if (r < 0) continue;
      seg_sub.push_back(r);
      src_sel.push_back(g.und_src[i]);
    }

    nn::Matrix h_src(static_cast<int>(src_sel.size()), dim);
    for (std::size_t i = 0; i < src_sel.size(); ++i) {
      const float* src = h.row_ptr(src_sel[i]);
      std::copy(src, src + dim, h_src.row_ptr(static_cast<int>(i)));
    }
    nn::Matrix q(num_sel, dim);
    nn::Matrix inv(num_sel, 1);
    for (int i = 0; i < num_sel; ++i) {
      const int v = rows[static_cast<std::size_t>(i)];
      const float* src = h.row_ptr(v);
      std::copy(src, src + dim, q.row_ptr(i));
      inv.at(i, 0) = g.und_inv_deg[static_cast<std::size_t>(v)];
    }

    const Tensor q_t = nn::constant(std::move(q));
    Tensor pe;  // undefined: GCN has no skip-edge attributes
    const Tensor m = aggs_[l]->forward(nn::constant(std::move(h_src)), q_t, seg_sub, num_sel,
                                       nn::constant(std::move(inv)), pe);
    const Tensor next = nn::relu(combines_[l].forward(nn::concat_cols(q_t, m)));
    for (int i = 0; i < num_sel; ++i) {
      const float* src = next.value().row_ptr(i);
      std::copy(src, src + dim, out.row_ptr(rows[static_cast<std::size_t>(i)]));
    }
  }

  /// The GCN forward; with `memo` set it also captures per-layer
  /// checkpoints for later cone-limited re-queries.
  ForwardOutputs full_capture(const CircuitGraph& g, LevelMemo* memo,
                              IncrementalRunStats* stats) const {
    count_full_forward();
    if (stats != nullptr) *stats = {};

    const bool capture = memo != nullptr;
    const bool store = capture && checkpoint_mb(g) <= incremental_memo_cap_mb();

    Tensor h = init_full_state(g, cfg_.dim, /*random_init=*/false, cfg_.seed);
    const Tensor inv_deg = nn::constant(
        nn::Matrix::from_vector(g.num_nodes, 1, std::vector<float>(g.und_inv_deg)));
    Tensor pe;
    std::vector<std::vector<nn::Matrix>> checkpoints;
    if (store) checkpoints.push_back({h.value()});
    for (std::size_t l = 0; l < aggs_.size(); ++l) {
      const Tensor h_src = nn::gather_rows(h, g.und_src);
      const Tensor m = aggs_[l]->forward(h_src, h, g.und_dst, g.num_nodes, inv_deg, pe);
      h = nn::relu(combines_[l].forward(nn::concat_cols(h, m)));
      if (store) checkpoints.push_back({h.value()});
    }
    const Tensor pred = regressor_.forward(h, g);

    if (capture) {
      memo->checkpoints = std::move(checkpoints);
      memo->has_checkpoints = store;
      memo->snap.capture(g);
      memo->prediction = pred.value();
      memo->embedding = h.value();
      memo->valid = true;
    }
    return {pred, h};
  }

  std::vector<std::unique_ptr<Aggregator>> aggs_;
  std::vector<nn::Linear> combines_;
  Regressor regressor_;
};

}  // namespace

std::unique_ptr<Model> make_gcn(const ModelConfig& cfg) {
  return std::make_unique<GcnModel>(cfg);
}

}  // namespace dg::gnn
