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
  std::uint64_t full = 0;  ///< complete level-loop forwards
};
ForwardCounters forward_counters();
void count_full_forward();

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
/// one-hot input and the regressor heads, so a mismatched graph would be
/// read out of bounds. pe_L names the Eq. (7) L the graph was built for;
/// the attention aggregator encodes with its own table, so a mismatch can
/// no longer overrun it, but graph and model must still agree on it. Every
/// inference entry point (gnn::execute, serve::Server's submit/try_submit,
/// IncrementalSession) calls it before any kernel runs.
void check_compatible(const ModelConfig& cfg, const CircuitGraph& g);

/// Throws std::invalid_argument naming both values when cfg.dim <
/// cfg.num_types. The one-hot initial state (init_level_states with
/// random_init off, init_full_state) pads the gate-type one-hot to width
/// dim, so it needs dim >= num_types; each family whose h0 is that one-hot
/// calls this at construction.
void require_one_hot_fits(const ModelConfig& cfg);

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

  void collect(nn::NamedParams& out, const std::string& prefix) const;

 private:
  std::vector<nn::Mlp> heads_;
};

// -- Per-level state helpers --------------------------------------------------

/// One-hot gate-type features for each level (B_L x num_types constants).
std::vector<nn::Tensor> level_onehot(const CircuitGraph& g);

/// Initial per-level hidden states of the taped forward: seeded-random
/// N(0, 1/sqrt(d)) rows (DeepGate) or the one-hot features zero-padded to
/// width d (baselines). The no-grad forward writes the same rows straight
/// into its state slab.
std::vector<nn::Tensor> init_level_states(const CircuitGraph& g, int dim, bool random_init,
                                          std::uint64_t seed);

/// Initial whole-graph state (N x d) of the whole-graph models (GCN): the
/// one-hot features zero-padded to width d.
nn::Tensor init_full_state(const CircuitGraph& g, int dim);

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

  /// Storage every no-grad sweep of one forward shares, whatever its layer
  /// (defined in model_common.cpp), allocated once per forward: the level
  /// states as one level-ordered N x d slab, which every level step reads
  /// and updates in place; a sweep-start copy of it only when a helper
  /// lane computes products ahead; the gate type of each slab row, which
  /// the refed one-hot folds into; the driver's GRU work area and the ring
  /// of hidden-side GRU product slots. No level step allocates a state.
  struct SweepBuffers;

  /// One sweep with gradients recorded. `states` is updated level by level;
  /// `queries`, a copy of `states` at sweep start, supplies h^{t-1} for the
  /// attention aggregator; `x_lvl` supplies the refed gate-type features.
  void run_taped(const CircuitGraph& g, std::vector<nn::Tensor>& states,
                 const std::vector<nn::Tensor>& queries,
                 const std::vector<nn::Tensor>& x_lvl) const;

  /// The same sweep under NoGradGuard, bitwise equal, on the states in
  /// `buffers`' slab. The calling thread drives the levels in order; each
  /// level step gathers its sources from the slab, reads its own rows as
  /// the attention query and GRU state, and writes the GRU output over
  /// them (only the update_rows of a masked level). One idle pool lane, if
  /// there is one, computes the hidden-side GRU products of the levels
  /// ahead from the sweep-start copy (a level's state is its sweep-start
  /// state until the sweep reaches it). `buffers` must be used with one
  /// graph only.
  void run_no_grad(const CircuitGraph& g, SweepBuffers& buffers) const;

  void collect(nn::NamedParams& out, const std::string& prefix) const;

 private:
  /// The level-L batch this layer consumes (rev / fwd_skip / fwd).
  const LevelBatch& batch_at(const CircuitGraph& g, int L) const {
    return reversed_ ? g.rev[static_cast<std::size_t>(L)]
           : use_skip_ ? g.fwd_skip[static_cast<std::size_t>(L)]
                       : g.fwd[static_cast<std::size_t>(L)];
  }

  /// The levels this layer updates, in sweep order: those whose batch has
  /// edges (a level without edges keeps its states).
  void sweep_levels(const CircuitGraph& g, std::vector<int>& out) const;

  /// The skip list the aggregator reads: the batch's on a skip-connected
  /// layer, null on every other layer.
  const std::vector<SkipSlot>* skips_of(const LevelBatch& batch) const {
    return use_skip_ ? &batch.skips : nullptr;
  }

  /// Aggregated messages into level L, taped. The aggregator gets the
  /// batch's seg and skip list and derives what it reads from them.
  nn::Tensor aggregate(const CircuitGraph& g, int L, const std::vector<nn::Tensor>& states,
                       const std::vector<nn::Tensor>& queries) const;

  /// The same messages with gradients off: sources gathered from the slab
  /// in one pass, the query read in place.
  nn::Matrix aggregate_no_grad(const CircuitGraph& g, int L, const SweepBuffers& buffers) const;

  bool reversed_;
  bool use_skip_;
  bool refeed_;
  std::unique_ptr<Aggregator> agg_;
  nn::GruCell gru_;
};

/// The one level-loop forward of every DirectedLayer family: h0, the
/// `sweeps` in execution order (e.g. [fwd, rev] x T for the recurrent models,
/// the stacked layers for DAG-ConvGNN), then the regressor. It is the
/// forward behind Model::forward_outputs, training tape included.
ForwardOutputs run_layered_forward(const CircuitGraph& g,
                                   const std::vector<const DirectedLayer*>& sweeps,
                                   const Regressor& regressor, const ModelConfig& cfg);

}  // namespace dg::gnn
