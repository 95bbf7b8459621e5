// Public facade of the library — the API a downstream user programs against.
//
//   deepgate::Engine engine(options);
//   auto graph = deepgate::prepare(my_netlist, 100000, seed);  // AIG + labels
//   engine.train(train_graphs, train_options);
//   auto probs = engine.predict_probabilities(graph);
//   auto emb   = engine.embeddings(graph);        // per-gate representation
//   auto both  = engine.infer_batch(graph_ptrs);  // one merged forward, both outputs
//   engine.save("model.dgtp");
//
// One propagation always yields both outputs (the regressor reads the
// embeddings, Sec. III-C), so every inference call above, evaluate(), and
// the asynchronous serving loop (deepgate::serve, serve/server.hpp) run the
// same batched executor (gnn/executor.hpp): a graph gets the same bits
// whichever entry point served it and however it was batched.
//
// Everything here delegates to the dg::* subsystem libraries; nothing in the
// facade is required to use them directly.
#pragma once

#include "aig/aig.hpp"
#include "data/dataset.hpp"
#include "gnn/metrics.hpp"
#include "gnn/models.hpp"
#include "gnn/trainer.hpp"
#include "netlist/netlist.hpp"
#include "obs/obs.hpp"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace deepgate {

using CircuitGraph = dg::gnn::CircuitGraph;
using ModelConfig = dg::gnn::ModelConfig;
using TrainConfig = dg::gnn::TrainConfig;
using ModelSpec = dg::gnn::ModelSpec;

/// Observability facade: deepgate::obs::snapshot() / ::dump_trace() — see
/// obs/obs.hpp. Metrics and tracing are bitwise-neutral on every output.
namespace obs = ::dg::obs;

struct Options {
  ModelConfig model;       ///< architecture hyperparameters
  ModelSpec spec;          ///< which Table II family/aggregator to build
  Options() {
    spec.family = dg::gnn::ModelFamily::kDeepGate;
    spec.agg = dg::gnn::AggKind::kAttention;
    spec.use_skip = true;  // full DeepGate by default
  }
};

/// Circuit data preparation (Fig. 2a) for a user netlist: map to AIG,
/// optimize, expand to PI/AND/NOT gates, simulate `patterns` random vectors
/// for the per-node probabilities, detect reconvergences.
CircuitGraph prepare(const dg::netlist::Netlist& nl, std::size_t patterns, std::uint64_t seed);

/// Same for circuits already in AIG form: data::graph_from_aig, the one
/// pipeline the Table III designs run through too.
CircuitGraph prepare(const dg::aig::Aig& aig, std::size_t patterns, std::uint64_t seed);

/// Table I-style training corpus preparation: sharded across the thread pool
/// (DEEPGATE_THREADS), durable across runs via the on-disk shard cache when a
/// cache directory is configured (DEEPGATE_DATA_DIR, or explicitly through
/// `options`). Bit-identical output at every thread count and across
/// cold/warm cache runs.
struct DatasetOptions {
  dg::util::BenchScale scale = dg::util::BenchScale::kSmall;
  std::uint64_t seed = 1;
  dg::data::BuildOptions build = dg::data::BuildOptions::from_env();
};
dg::data::Dataset prepare_dataset(const DatasetOptions& options = {});

/// Same, for callers that need full control over the family mix.
dg::data::Dataset prepare_dataset(const dg::data::DatasetConfig& config,
                                  const dg::data::BuildOptions& build);

/// Both outputs of Engine::infer_batch, request order: probabilities[i] /
/// embeddings[i] belong to batch[i]. Zero-node graphs get empty entries.
struct BatchInference {
  std::vector<std::vector<float>> probabilities;
  std::vector<dg::nn::Matrix> embeddings;
};

class IncrementalSession;

class Engine {
 public:
  explicit Engine(const Options& options = Options());

  /// Train on prepared graphs; returns per-epoch training loss. Each batch
  /// is split across cfg.threads model replicas (0 = DEEPGATE_THREADS, at
  /// most cfg.batch_circuits); see gnn/trainer.hpp.
  dg::gnn::TrainResult train(const std::vector<CircuitGraph>& train_set,
                             const TrainConfig& cfg);

  /// Train from a shard stream (e.g. dg::data::ShardStream over the files in
  /// Dataset::shard_files) without materializing the whole set in memory.
  /// The same loop and worker count as the vector overload: it honors
  /// cfg.threads, and a one-chunk stream trains bit-exactly like it.
  dg::gnn::TrainResult train(dg::gnn::GraphStream& stream, const TrainConfig& cfg);

  /// Avg prediction error, Eq. (8), on the batched executor: the set is
  /// packed into merged super-graphs of at most the default
  /// gnn::ServeOptions node budget and member cap, fanned across the thread
  /// pool. Per-graph errors are reduced in test-set order, so the result is
  /// deterministic at any DEEPGATE_THREADS.
  /// `iterations_override` > 0 forces the inference T; if the model is
  /// non-recurrent and ignores it, the effective count is logged once.
  double evaluate(const std::vector<CircuitGraph>& test_set,
                  int iterations_override = 0) const;

  /// Per-node predicted probabilities (empty for a zero-node graph).
  std::vector<float> predict_probabilities(const CircuitGraph& g) const;

  /// Per-node embedding matrix (N x d; 0 x 0 for a zero-node graph).
  dg::nn::Matrix embeddings(const CircuitGraph& g) const;

  /// Batched inference: ONE model forward over the level-merged disjoint
  /// union of `batch` (CircuitGraph::merge) yields every graph's
  /// probabilities AND embeddings; an already-merged batch graph runs as a
  /// forward of its own. Bit-exact with per-graph
  /// predict_probabilities/embeddings. Throws std::invalid_argument, before
  /// any forward runs, on null entries and on graphs whose num_types/pe_L
  /// differ from the model's; an empty request and zero-node graphs yield
  /// empty results.
  BatchInference infer_batch(const std::vector<const CircuitGraph*>& batch) const;

  /// Incremental inference over a mutating circuit (core/incremental_session
  /// .hpp): per-node probabilities / embeddings of the session's CURRENT
  /// graph. A session edited since its previous query runs one full forward
  /// through the executor, as predict_probabilities does; an unchanged one
  /// replays its cached outputs, so embed-then-predict on an unchanged
  /// session costs exactly one level-loop forward. Bitwise identical to
  /// rebuilding the graph and calling predict_probabilities / embeddings.
  /// The session must be bound to THIS engine; throws std::invalid_argument
  /// otherwise.
  std::vector<float> predict_incremental(IncrementalSession& session) const;
  dg::nn::Matrix embeddings_incremental(IncrementalSession& session) const;

  /// Fresh deep copy of the model (identical architecture and current
  /// parameter values) — the replica factory for serve worker lanes: each
  /// lane owns its clone, so forwards never share mutable state across
  /// lanes, and clone forwards are bit-exact with the engine's own.
  std::unique_ptr<dg::gnn::Model> clone_model() const;

  /// The iteration count inference actually runs for `requested` (Sec.
  /// IV-D.2 sweeps): recurrent models honor requested > 0, stacked models
  /// are fixed at construction. Logs once (per engine) when the override
  /// would be silently ignored, so sweep harnesses can't misreport.
  int effective_iterations(int requested) const;

  /// Checkpointing (binary, name-keyed; see nn/serialize.hpp).
  bool save(const std::string& path) const;
  bool load(const std::string& path);

  const dg::gnn::Model& model() const { return *model_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  std::unique_ptr<dg::gnn::Model> model_;
  /// Log-once latch of effective_iterations; atomic because concurrent
  /// const calls (evaluate from several threads) may all try to set it.
  mutable std::atomic<bool> iterations_warned_{false};
};

}  // namespace deepgate
