// Batched multi-graph inference: level-merged super-graphs must reproduce
// the single-graph path bit-exactly, for heterogeneous batches across all
// four Table II model families and for a batch of one.
#include "core/deepgate.hpp"
#include "data/generators_large.hpp"
#include "data/generators_small.hpp"
#include "netlist/to_aig.hpp"
#include "sim/probability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <vector>

namespace dg {
namespace {

using gnn::AggKind;
using gnn::CircuitGraph;
using gnn::ModelConfig;
using gnn::ModelFamily;
using gnn::ModelSpec;

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.dim = 12;
  cfg.iterations = 3;
  cfg.mlp_hidden = 8;
  cfg.seed = 11;
  return cfg;
}

/// Heterogeneous AIG workload: different depths, with/without skip edges,
/// constant-free and constant-collapsed cones, plus a single-node graph.
std::vector<CircuitGraph> mixed_graphs() {
  std::vector<CircuitGraph> graphs;
  // Diamond: shallow, reconvergent (1 skip edge).
  {
    aig::Aig a;
    const aig::Lit x = aig::make_lit(a.add_input(), false);
    const aig::Lit y = aig::make_lit(a.add_input(), false);
    const aig::Lit z = aig::make_lit(a.add_input(), false);
    a.add_output(a.add_and(a.add_and(x, y), a.add_and(x, z)));
    graphs.push_back(deepgate::prepare(a, 2000, 5));
  }
  // Squarer: outputs optimize to constants -> exercises the
  // constant-collapsed preparation path; deeper than the diamond.
  graphs.push_back(deepgate::prepare(data::gen_squarer(5), 2000, 6));
  // EPFL-like arithmetic netlist through the full prepare pipeline:
  // different structure and depth from the generators above.
  {
    util::Rng rng(21);
    graphs.push_back(deepgate::prepare(data::gen_epfl_like(rng), 2000, 7));
  }
  // Multiplier: deepest member, many skip edges.
  graphs.push_back(deepgate::prepare(data::gen_multiplier(4), 2000, 8));
  // Single-node graph: one PI, no edges.
  {
    CircuitGraph g;
    g.num_nodes = 1;
    g.num_types = 3;
    g.type_id = {0};
    g.level = {0};
    g.labels = {0.5F};
    g.finalize();
    graphs.push_back(std::move(g));
  }
  return graphs;
}

std::vector<ModelSpec> table2_specs() {
  return {
      {ModelFamily::kGcn, AggKind::kConvSum, false},
      {ModelFamily::kDagConv, AggKind::kConvSum, false},
      {ModelFamily::kDagRec, AggKind::kDeepSet, false},
      {ModelFamily::kDeepGate, AggKind::kAttention, false},  // w/o SC
      {ModelFamily::kDeepGate, AggKind::kAttention, true},   // w/ SC
  };
}

TEST(CircuitGraphMerge, StructureIsDisjointUnion) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const CircuitGraph merged = CircuitGraph::merge(ptrs);

  ASSERT_TRUE(merged.is_batch());
  ASSERT_EQ(merged.members.size(), graphs.size());
  int nodes = 0, max_levels = 0;
  std::size_t edges = 0, skips = 0;
  for (const auto& g : graphs) {
    nodes += g.num_nodes;
    edges += g.edges.size();
    skips += g.skip_edges.size();
    max_levels = std::max(max_levels, g.num_levels);
  }
  EXPECT_EQ(merged.num_nodes, nodes);
  EXPECT_EQ(merged.edges.size(), edges);
  EXPECT_EQ(merged.skip_edges.size(), skips);
  EXPECT_EQ(merged.num_levels, max_levels);
  // Members stay contiguous: node v of member m is merged node offset + v,
  // with identical type and level.
  for (std::size_t m = 0; m < graphs.size(); ++m) {
    const auto& mem = merged.members[m];
    ASSERT_EQ(mem.num_nodes, graphs[m].num_nodes);
    for (int v = 0; v < mem.num_nodes; ++v) {
      EXPECT_EQ(merged.type_id[static_cast<std::size_t>(mem.node_offset + v)],
                graphs[m].type_id[static_cast<std::size_t>(v)]);
      EXPECT_EQ(merged.level[static_cast<std::size_t>(mem.node_offset + v)],
                graphs[m].level[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(CircuitGraphMerge, RejectsIncompatibleParts) {
  const auto graphs = mixed_graphs();
  CircuitGraph other = graphs[0];
  other.finalize(4);  // different pe_L
  EXPECT_THROW(CircuitGraph::merge({&graphs[0], &other}), std::invalid_argument);
  EXPECT_THROW(CircuitGraph::merge({&graphs[0], nullptr}), std::invalid_argument);
  const CircuitGraph merged = CircuitGraph::merge({&graphs[0], &graphs[1]});
  EXPECT_THROW(CircuitGraph::merge({&merged, &graphs[2]}), std::invalid_argument);
}

TEST(CircuitGraphMerge, EmptyAndSingle) {
  const CircuitGraph empty = CircuitGraph::merge({});
  EXPECT_EQ(empty.num_nodes, 0);
  EXPECT_FALSE(empty.is_batch());

  const auto graphs = mixed_graphs();
  const CircuitGraph one = CircuitGraph::merge({&graphs[0]});
  ASSERT_TRUE(one.is_batch());
  EXPECT_EQ(one.num_nodes, graphs[0].num_nodes);
  EXPECT_EQ(one.edges, graphs[0].edges);
}

bool bit_equal_matrix(const nn::Matrix& a, const nn::Matrix& b) {
  return a.same_shape(b) && std::equal(a.data(), a.data() + a.size(), b.data());
}

// merged == solo: for every Table II family, infer_batch over the merged
// heterogeneous batch reproduces per-graph predict_probabilities/embeddings
// bitwise.
TEST(BatchedInference, AllFamiliesMatchSingleGraphPath) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    const deepgate::Engine engine(options);

    const deepgate::BatchInference batched = engine.infer_batch(ptrs);
    ASSERT_EQ(batched.probabilities.size(), graphs.size());
    ASSERT_EQ(batched.embeddings.size(), graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_EQ(batched.probabilities[i], engine.predict_probabilities(graphs[i]))
          << gnn::model_spec_label(spec) << " graph " << i;
      const nn::Matrix emb = engine.embeddings(graphs[i]);
      EXPECT_EQ(emb.rows(), graphs[i].num_nodes);
      EXPECT_EQ(emb.cols(), tiny_config().dim);
      EXPECT_TRUE(bit_equal_matrix(batched.embeddings[i], emb))
          << gnn::model_spec_label(spec) << " graph " << i;
    }
  }
}

TEST(BatchedInference, BatchOfOneIsBitExact) {
  const auto graphs = mixed_graphs();
  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    const deepgate::Engine engine(options);
    for (const auto& g : graphs) {
      const deepgate::BatchInference one = engine.infer_batch({&g});
      ASSERT_EQ(one.probabilities.size(), 1u);
      EXPECT_EQ(one.probabilities[0], engine.predict_probabilities(g))
          << gnn::model_spec_label(spec);
      EXPECT_TRUE(bit_equal_matrix(one.embeddings[0], engine.embeddings(g)))
          << gnn::model_spec_label(spec);
    }
  }
}

TEST(BatchedInference, DegenerateRequests) {
  const deepgate::Engine engine;
  EXPECT_TRUE(engine.infer_batch({}).probabilities.empty());
  EXPECT_TRUE(engine.infer_batch({}).embeddings.empty());

  const auto graphs = mixed_graphs();
  CircuitGraph empty;
  empty.finalize();
  const auto mixed = engine.infer_batch({&graphs[0], &empty});
  ASSERT_EQ(mixed.probabilities.size(), 2u);
  EXPECT_EQ(mixed.probabilities[0], engine.predict_probabilities(graphs[0]));
  EXPECT_TRUE(mixed.probabilities[1].empty());
  EXPECT_EQ(mixed.embeddings[1].rows(), 0);
  EXPECT_THROW(engine.infer_batch({nullptr}), std::invalid_argument);

  // Graphs that cannot share a merge (here an already-merged batch) split
  // into separate forwards instead of failing the request.
  const CircuitGraph pair = CircuitGraph::merge({&graphs[0], &graphs[2]});
  const auto split = engine.infer_batch({&graphs[1], &pair});
  EXPECT_EQ(split.probabilities[0], engine.predict_probabilities(graphs[1]));
  std::vector<float> pair_probs = engine.predict_probabilities(graphs[0]);
  const std::vector<float> second = engine.predict_probabilities(graphs[2]);
  pair_probs.insert(pair_probs.end(), second.begin(), second.end());
  EXPECT_EQ(split.probabilities[1], pair_probs);
}

// The executor through budgeted packing + pool fan-out stays bit-exact, pass
// after pass of the same request.
TEST(Executor, BudgetedFanOutMatchesSinglePathOnRepeatedPasses) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  for (const std::size_t budget : {std::size_t{48}, std::size_t{2048}}) {
    gnn::ServeOptions opts;
    opts.node_budget = budget;  // 48 forces several batches, 2048 merges most
    opts.threads = 4;
    for (int pass = 0; pass < 2; ++pass) {
      deepgate::BatchInference out;
      out.probabilities.resize(ptrs.size());
      out.embeddings.resize(ptrs.size());
      const std::size_t batches = gnn::execute(
          engine.model(), ptrs, opts, 0,
          [&](std::size_t i, const gnn::Batch& batch, std::size_t member) {
            out.probabilities[i] = batch.prediction(member);
            out.embeddings[i] = batch.embedding(member);
          });
      EXPECT_GE(batches, budget == 48 ? 2u : 1u);
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        EXPECT_EQ(out.probabilities[i], engine.predict_probabilities(graphs[i]))
            << "budget " << budget << " graph " << i;
        EXPECT_TRUE(bit_equal_matrix(out.embeddings[i], engine.embeddings(graphs[i])))
            << "budget " << budget << " graph " << i;
      }
    }
  }
}

// -- One forward per batch -----------------------------------------------------

// Both outputs come from ONE full level-loop forward per batch, for every
// Table II family: a merged infer_batch, a direct embeddings() call, and a
// bare Model::forward_outputs each move forward_counters().full by exactly
// the number of batches they ran.
TEST(FusedForward, OneFullForwardPerBatchForBothOutputs) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    const deepgate::Engine engine(options);

    const auto c0 = gnn::forward_counters();
    const deepgate::BatchInference both = engine.infer_batch(ptrs);
    const auto c1 = gnn::forward_counters();
    EXPECT_EQ(c1.full - c0.full, 1u) << gnn::model_spec_label(spec);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_EQ(both.probabilities[i].size(), static_cast<std::size_t>(graphs[i].num_nodes));
      EXPECT_EQ(both.embeddings[i].rows(), graphs[i].num_nodes);
    }

    const nn::Matrix emb = engine.embeddings(graphs[0]);
    const auto c2 = gnn::forward_counters();
    EXPECT_EQ(c2.full - c1.full, 1u) << gnn::model_spec_label(spec);

    nn::NoGradGuard no_grad;
    const gnn::ForwardOutputs direct = engine.model().forward_outputs(graphs[0]);
    const auto c3 = gnn::forward_counters();
    EXPECT_EQ(c3.full - c2.full, 1u) << gnn::model_spec_label(spec);
    EXPECT_TRUE(bit_equal_matrix(direct.embedding.value(), emb)) << gnn::model_spec_label(spec);
  }
}

// -- Checkpoint round trip ------------------------------------------------------

// save -> perturb every parameter -> load must restore predict AND the fused
// forward_outputs bit-exactly, for every family, solo and merged.
TEST(EngineCheckpoint, SavePerturbLoadRestoresBitExactOutputs) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    deepgate::Engine engine(options);

    const auto ref_solo = engine.predict_probabilities(graphs[0]);
    const deepgate::BatchInference ref = engine.infer_batch(ptrs);

    const std::string path =
        (std::filesystem::temp_directory_path() / "dg_fused_ckpt.dgtp").string();
    ASSERT_TRUE(engine.save(path)) << gnn::model_spec_label(spec);

    // Perturb every parameter in place; predictions must visibly change so
    // the reload below proves restoration rather than a no-op.
    for (auto& [name, tensor] : engine.model().named_params()) {
      nn::Matrix& value = tensor.mutable_value();
      for (std::size_t k = 0; k < value.size(); ++k) value.data()[k] += 0.25F;
    }
    EXPECT_NE(engine.predict_probabilities(graphs[0]), ref_solo)
        << gnn::model_spec_label(spec) << " (perturbation had no effect)";

    ASSERT_TRUE(engine.load(path)) << gnn::model_spec_label(spec);
    std::remove(path.c_str());

    EXPECT_EQ(engine.predict_probabilities(graphs[0]), ref_solo) << gnn::model_spec_label(spec);
    const deepgate::BatchInference reloaded = engine.infer_batch(ptrs);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_EQ(reloaded.probabilities[i], ref.probabilities[i])
          << gnn::model_spec_label(spec) << " graph " << i;
      EXPECT_TRUE(bit_equal_matrix(reloaded.embeddings[i], ref.embeddings[i]))
          << gnn::model_spec_label(spec) << " graph " << i;
    }
  }
}

TEST(BatchedEvaluate, MatchesPerGraphFallbackAndIsDeterministic) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  gnn::ServeOptions batched;
  batched.node_budget = 48;
  gnn::ServeOptions fallback;
  fallback.node_budget = 0;  // pre-batching path, still pooled
  gnn::ServeOptions serial = fallback;
  serial.threads = 1;

  const double e_batched = gnn::evaluate(engine.model(), graphs, batched);
  const double e_fallback = gnn::evaluate(engine.model(), graphs, fallback);
  const double e_serial = gnn::evaluate(engine.model(), graphs, serial);
  // Merged forwards are bit-exact and the reduction order is fixed, so all
  // three agree exactly.
  EXPECT_EQ(e_batched, e_fallback);
  EXPECT_EQ(e_fallback, e_serial);
  EXPECT_EQ(engine.evaluate(graphs), e_serial);
}

// Repeated offline eval of a fixed test set re-forms identical merge groups
// every pass and reports the identical Eq. (8) number, through gnn::evaluate
// and through Engine::evaluate.
TEST(BatchedEvaluate, RepeatedEvaluateIsBitIdentical) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  gnn::ServeOptions opts;
  opts.node_budget = 2048;  // multi-member groups

  const double default_budget = gnn::evaluate(engine.model(), graphs, gnn::ServeOptions{});
  const double first = gnn::evaluate(engine.model(), graphs, opts);
  const double second = gnn::evaluate(engine.model(), graphs, opts);
  EXPECT_EQ(first, second);
  // Budgets differ between opts and the default, but the result is the same
  // batched-bit-exact Eq. (8) number either way.
  EXPECT_EQ(first, default_budget);

  const double e1 = engine.evaluate(graphs);
  const double e2 = engine.evaluate(graphs);
  EXPECT_EQ(e1, e2);
}

TEST(EffectiveIterations, RecurrentHonorsOverrideStackedLogsOnce) {
  deepgate::Options rec;
  rec.model = tiny_config();
  const deepgate::Engine recurrent(rec);
  EXPECT_EQ(recurrent.effective_iterations(7), 7);
  EXPECT_EQ(recurrent.effective_iterations(0), tiny_config().iterations);

  deepgate::Options stacked;
  stacked.spec = {ModelFamily::kGcn, AggKind::kConvSum, false};
  stacked.model = tiny_config();
  const deepgate::Engine gcn(stacked);
  EXPECT_EQ(gcn.effective_iterations(7), tiny_config().iterations);

  // The override is ignored numerically, too: T=7 equals the default run.
  const auto graphs = mixed_graphs();
  EXPECT_EQ(gcn.evaluate(graphs, 7), gcn.evaluate(graphs));
}

}  // namespace
}  // namespace dg
