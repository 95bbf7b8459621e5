// Shared model infrastructure: configuration, the Model interface, the
// per-gate-type regressor (Sec. III-C "Regressor": MLP weights shared for
// nodes of the same gate type), per-level state helpers, and the directed
// propagation layer used by every DAG model (forward and reversed).
#pragma once

#include "gnn/aggregators.hpp"
#include "gnn/circuit_graph.hpp"
#include "nn/gru.hpp"
#include "nn/mlp.hpp"

#include <memory>
#include <string>

namespace dg::gnn {

struct ModelConfig {
  int dim = 64;            ///< hidden width d (paper: 64)
  int iterations = 10;     ///< T for recurrent models, L for stacked models
  AggKind agg = AggKind::kAttention;
  bool use_skip = false;   ///< DeepGate w/ SC: include skip-connection edges
  bool reverse = true;     ///< run a reversed layer after each forward layer
  bool refeed_input = true;///< concat gate-type one-hot into the GRU input
                           ///< every iteration (DeepGate) vs only via h0
  bool random_h0 = true;   ///< random initial states (DeepGate) vs x-padded
  int num_types = 3;       ///< 3 for AIGs, 9 for raw netlists
  int pe_L = 8;            ///< Eq. (7) L; encoding width 2L
  int mlp_hidden = 32;     ///< regressor hidden width
  std::uint64_t seed = 7;  ///< weight init + h0 stream
};

/// Both outputs of one model forward. The regressor reads the final N x d
/// node states (Sec. III-C), so every propagation yields the embedding and
/// the probabilities together.
struct ForwardOutputs {
  nn::Tensor prediction;  ///< N x 1 sigmoid-bounded probabilities
  nn::Tensor embedding;   ///< N x d final node states
};

/// Process-wide structural counters over level-loop propagations — the
/// assertion device for "exactly one forward" properties (one forward per
/// executed batch, and the incremental session's memo-hit guarantee). Updated with
/// relaxed atomics: these are counts, not synchronization.
struct ForwardCounters {
  std::uint64_t full = 0;     ///< complete level-loop forwards
  std::uint64_t partial = 0;  ///< cone-limited incremental re-propagations
};
ForwardCounters forward_counters();
void count_full_forward();
void count_partial_forward();

/// Opaque per-session memo a model keeps between forward_incremental calls
/// (per-generation level states — see gnn/incremental.hpp). Owned by the
/// caller (core::IncrementalSession), typed by the model family.
class IncrementalState {
 public:
  virtual ~IncrementalState() = default;
};

/// What one forward_incremental call actually did.
struct IncrementalRunStats {
  bool memo_hit = false;  ///< unchanged generation: outputs replayed, zero propagation
  bool partial = false;   ///< cone-limited re-propagation (vs full capture run)
  int dirty_nodes = 0;    ///< rows recomputed in the final sweep of a partial run
};

class Model {
 public:
  explicit Model(const ModelConfig& cfg) : cfg_(cfg) {}
  virtual ~Model() = default;

  /// The model forward: per-node probabilities AND final embeddings from
  /// one level-loop propagation. Builds a fresh tape; wrap in
  /// nn::NoGradGuard for inference. `iterations` > 0 overrides the
  /// recurrence count T (Sec. IV-D.2: only T may change at inference);
  /// 0 runs the configured T, and stacked families ignore the value (see
  /// effective_iterations).
  virtual ForwardOutputs forward_outputs(const CircuitGraph& g, int iterations) const = 0;

  /// The forward at the configured T.
  ForwardOutputs forward_outputs(const CircuitGraph& g) const { return forward_outputs(g, 0); }

  /// The iteration count forward_outputs(g, requested) actually runs:
  /// recurrent models honor requested > 0; stacked models are fixed at
  /// construction and silently ignore the override — callers that sweep T
  /// (Sec. IV-D.2) must consult this to avoid misreporting stacked results.
  virtual int effective_iterations(int /*requested*/) const { return cfg_.iterations; }

  /// Deep copy with identical architecture and current parameter values —
  /// the replica factory for the data-parallel trainer: each pool worker
  /// taping forward/backward needs its own parameter leaves so gradient
  /// accumulation never races across threads.
  virtual std::unique_ptr<Model> clone() const = 0;

  virtual void collect(nn::NamedParams& out, const std::string& prefix) const = 0;
  virtual const char* name() const = 0;

  /// Families supporting cone-limited re-propagation return a fresh memo
  /// holder; the base returns nullptr and forward_incremental degrades to
  /// plain full forwards.
  virtual std::unique_ptr<IncrementalState> make_incremental_state() const { return nullptr; }

  /// Forward with per-generation memoization for mutating graphs. `state`
  /// (from make_incremental_state) carries the previous query's per-level
  /// states; `old_of_new[v]` maps current node ids to the memoized
  /// generation's ids (-1 = node did not exist then). Must run under
  /// nn::NoGradGuard. Outputs are bitwise identical to forward_outputs(g);
  /// the base implementation simply runs the full forward.
  virtual ForwardOutputs forward_incremental(const CircuitGraph& g, IncrementalState* state,
                                             const std::vector<int>& old_of_new,
                                             IncrementalRunStats* stats = nullptr) const {
    (void)state;
    (void)old_of_new;
    if (stats != nullptr) *stats = {};
    return forward_outputs(g);
  }

  nn::NamedParams named_params() const {
    nn::NamedParams p;
    collect(p, "model");
    return p;
  }
  const ModelConfig& config() const { return cfg_; }

 protected:
  ModelConfig cfg_;
};

/// Throws std::invalid_argument, naming the field and both values, unless
/// `g` was built for a model configured as `cfg`: num_types sizes the
/// one-hot input and the regressor heads, pe_L the skip-edge encoding the
/// attention weights read, so a mismatched graph would be read out of
/// bounds. Every inference entry point (gnn::execute, serve::Server's
/// submit/try_submit, IncrementalSession) calls it before any kernel runs.
void check_compatible(const ModelConfig& cfg, const CircuitGraph& g);

/// Copy every parameter value of `src` into `dst`. Both models must have the
/// same architecture (named_params aligned index by index).
void copy_params(const Model& src, Model& dst);

/// Same, on pre-walked parameter lists — for hot callers (the data-parallel
/// trainer syncs replicas every batch) that hold the NamedParams already.
void copy_params(const nn::NamedParams& from, nn::NamedParams& to);

/// Per-type MLP regression heads with sigmoid output.
class Regressor {
 public:
  Regressor() = default;
  Regressor(int num_types, int dim, int hidden, util::Rng& rng);

  /// h_full: N x d node states in node order -> N x 1 predictions.
  nn::Tensor forward(const nn::Tensor& h_full, const CircuitGraph& g) const;

  /// Incremental path: recompute predictions for `nodes` only and write them
  /// into `out` (N x 1) in place. Bitwise identical per row to forward():
  /// the heads are per-row MLPs, and the full path's scatter_add-into-zeros
  /// composition adds only exact zeros to each row's own head output (which
  /// is sigmoid-bounded, hence strictly positive — never the one value, -0.0,
  /// that adding +0.0 would rewrite). No-grad only.
  void forward_rows(const nn::Matrix& h_full, const CircuitGraph& g,
                    const std::vector<int>& nodes, nn::Matrix& out) const;

  void collect(nn::NamedParams& out, const std::string& prefix) const;

 private:
  std::vector<nn::Mlp> heads_;
};

// -- Per-level state helpers --------------------------------------------------

/// One-hot gate-type features for each level (B_L x num_types constants).
std::vector<nn::Tensor> level_onehot(const CircuitGraph& g);

/// One-hot features for the whole graph (N x num_types constant).
nn::Tensor full_onehot(const CircuitGraph& g);

/// Initial per-level hidden states: seeded-random N(0, 1/sqrt(d)) rows
/// (DeepGate) or the one-hot features zero-padded to width d (baselines).
std::vector<nn::Tensor> init_level_states(const CircuitGraph& g, int dim, bool random_init,
                                          std::uint64_t seed);

/// Same for whole-graph models.
nn::Tensor init_full_state(const CircuitGraph& g, int dim, bool random_init, std::uint64_t seed);

/// Stitch per-level states back into node order (N x d).
nn::Tensor full_from_levels(const std::vector<nn::Tensor>& states, const CircuitGraph& g);

/// Concat gathers from per-level states into the edge-ordered source batch.
nn::Tensor gather_batch_sources(const std::vector<nn::Tensor>& states, const LevelBatch& batch);

/// One directed propagation sweep (a "forward layer" or "reversed layer" of
/// Fig. 2b): walks levels in topological (or reverse) order, aggregates
/// predecessor (successor) messages and updates states with a GRU.
class DirectedLayer {
 public:
  DirectedLayer(const ModelConfig& cfg, bool reversed, util::Rng& rng);

  /// Per-graph memo reused across repeated run() calls on the SAME graph —
  /// the recurrent models' T sweeps. Caches level constants that cannot
  /// change between sweeps: the aggregator's pe projection (the encodings of
  /// Eq. (7) are pure graph structure) and the inv_deg constant. Consulted
  /// only on the no-grad path; when gradients are recorded every sweep tapes
  /// its own nodes, keeping training bitwise-untouched.
  struct Scratch {
    std::vector<nn::Tensor> pe_term;      ///< project_pe output per level
    std::vector<unsigned char> pe_valid;  ///< pe_term[L] computed (may be undefined)
    std::vector<nn::Tensor> inv_deg;      ///< constant per level
  };

  /// `states` is updated level by level; `queries` supplies h^{t-1} for the
  /// attention aggregator; `x_lvl` supplies the refed gate-type features.
  /// `scratch`, when given, must be used with one graph only and carries the
  /// per-level constants across sweeps.
  void run(const CircuitGraph& g, std::vector<nn::Tensor>& states,
           const std::vector<nn::Tensor>& queries, const std::vector<nn::Tensor>& x_lvl,
           Scratch* scratch = nullptr) const;

  /// Incremental path: recompute ONLY the given destination rows (ascending
  /// positions within level L) of this layer's level-L update. Sources are
  /// gathered from `cur` (the sweep's current per-level states); the GRU
  /// hidden and attention query rows come from `entry_L` (level L's state at
  /// sweep entry — run() reads the same values through `queries`/`states`).
  /// Updated rows are written into `out_L` in place; others are untouched.
  /// Per-row results are bitwise identical to run(): every selected
  /// destination keeps its complete in-order message segment, and all
  /// kernels involved are row- or segment-local. Requires a non-empty,
  /// unmasked batch at L and an active nn::NoGradGuard.
  void run_level_rows(const CircuitGraph& g, int L, const std::vector<int>& rows,
                      const std::vector<nn::Matrix>& cur, const nn::Matrix& entry_L,
                      nn::Matrix& out_L) const;

  bool reversed() const { return reversed_; }

  /// The level-L batch this layer consumes (rev / fwd_skip / fwd).
  const LevelBatch& batch_at(const CircuitGraph& g, int L) const {
    return reversed_ ? g.rev[static_cast<std::size_t>(L)]
           : use_skip_ ? g.fwd_skip[static_cast<std::size_t>(L)]
                       : g.fwd[static_cast<std::size_t>(L)];
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const;

 private:
  bool reversed_;
  bool use_skip_;
  bool refeed_;
  std::unique_ptr<Aggregator> agg_;
  nn::GruCell gru_;
};

}  // namespace dg::gnn
