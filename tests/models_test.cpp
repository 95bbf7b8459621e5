#include "gnn/models.hpp"

#include "aig/gate_graph.hpp"
#include "gnn/posenc.hpp"
#include "nn/arena.hpp"
#include "nn/gradcheck.hpp"
#include "nn/ops.hpp"
#include "nn/simd/dispatch.hpp"
#include "sim/probability.hpp"
#include "util/hash.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include <gtest/gtest.h>

namespace dg::gnn {
namespace {

using namespace dg::aig;

CircuitGraph small_graph() {
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  const Lit z = make_lit(a.add_input(), false);
  const Lit n1 = a.add_and(x, lit_not(y));
  const Lit n2 = a.add_and(x, z);
  a.add_output(a.add_and(n1, n2));
  a.add_output(lit_not(n1));
  const GateGraph g = to_gate_graph(a);
  return CircuitGraph::from_gate_graph(g, sim::exact_gate_graph_probabilities(g));
}

/// A five-level AND chain: merged with small_graph(), its extra levels make
/// the shallow member's rows skip levels (masked level batches).
CircuitGraph chain_graph() {
  Aig a;
  Lit acc = make_lit(a.add_input(), false);
  for (int i = 0; i < 5; ++i) acc = a.add_and(acc, make_lit(a.add_input(), i % 2 == 0));
  a.add_output(acc);
  const GateGraph g = to_gate_graph(a);
  return CircuitGraph::from_gate_graph(g, sim::exact_gate_graph_probabilities(g));
}

bool bit_equal_values(const nn::Tensor& a, const nn::Tensor& b) {
  const nn::Matrix& x = a.value();
  const nn::Matrix& y = b.value();
  return x.same_shape(y) && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.dim = 8;
  cfg.iterations = 3;
  cfg.mlp_hidden = 8;
  cfg.seed = 5;
  return cfg;
}

struct SpecCase {
  ModelSpec spec;
  const char* label;
  std::uint64_t forward_digest;   ///< ForwardDigestIsPinned's value
  std::uint64_t gradient_digest;  ///< GradientDigestIsPinned's value
};

/// Test names and failure lines show the label, not the struct's bytes.
void PrintTo(const SpecCase& c, std::ostream* os) { *os << c.label; }

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

class ScopedLevel {
 public:
  explicit ScopedLevel(nn::kern::SimdLevel level) : prev_(nn::kern::simd::set_level(level)) {}
  ~ScopedLevel() { nn::kern::simd::set_level(prev_); }

 private:
  nn::kern::SimdLevel prev_;
};

const char* libc_version() {
#if defined(__GLIBC__)
  return gnu_get_libc_version();
#else
  return "not glibc";
#endif
}

class ModelSweep : public ::testing::TestWithParam<SpecCase> {};

TEST_P(ModelSweep, PredictionShapeAndRange) {
  const CircuitGraph g = small_graph();
  auto model = make_model(GetParam().spec, tiny_config());
  nn::NoGradGuard no_grad;
  const nn::Tensor pred = model->forward_outputs(g).prediction;
  ASSERT_EQ(pred.rows(), g.num_nodes);
  ASSERT_EQ(pred.cols(), 1);
  for (int v = 0; v < g.num_nodes; ++v) {
    EXPECT_GE(pred.value().at(v, 0), 0.0F);
    EXPECT_LE(pred.value().at(v, 0), 1.0F);
  }
}

TEST_P(ModelSweep, DeterministicForward) {
  const CircuitGraph g = small_graph();
  auto model = make_model(GetParam().spec, tiny_config());
  nn::NoGradGuard no_grad;
  const nn::Tensor p1 = model->forward_outputs(g).prediction;
  const nn::Tensor p2 = model->forward_outputs(g).prediction;
  for (int v = 0; v < g.num_nodes; ++v)
    EXPECT_FLOAT_EQ(p1.value().at(v, 0), p2.value().at(v, 0));
}

TEST_P(ModelSweep, ParametersAreNamedUniquely) {
  auto model = make_model(GetParam().spec, tiny_config());
  const auto params = model->named_params();
  EXPECT_GE(params.size(), 4U);
  std::set<std::string> names;
  for (const auto& [name, t] : params) EXPECT_TRUE(names.insert(name).second) << name;
}

TEST_P(ModelSweep, LossGradientReachesMostParameters) {
  const CircuitGraph g = small_graph();
  auto model = make_model(GetParam().spec, tiny_config());
  const nn::Tensor pred = model->forward_outputs(g).prediction;
  const nn::Matrix target =
      nn::Matrix::from_vector(g.num_nodes, 1, std::vector<float>(g.labels));
  nn::l1_loss(pred, target).backward();
  std::size_t with_grad = 0, total = 0;
  for (const auto& [name, t] : model->named_params()) {
    // Skip-edge PE weights legitimately receive no gradient in models that
    // never see skip edges (GCN, DAG-Conv, DeepGate w/o SC).
    if (name.find(".agg.pe") != std::string::npos) continue;
    ++total;
    with_grad += t.has_grad();
  }
  EXPECT_EQ(with_grad, total) << GetParam().label;
}

// The no-grad forward (fused attention, fused GRU step, level states in one
// slab) is bitwise the taped forward that training records, for every
// family, on a solo graph and on a merged batch with masked levels.
TEST_P(ModelSweep, NoGradForwardIsBitwiseTheTapedForward) {
  const CircuitGraph g = small_graph();
  const CircuitGraph chain = chain_graph();
  const CircuitGraph merged = CircuitGraph::merge({&g, &chain});
  bool masked = false;
  for (const LevelBatch& b : merged.rev) masked = masked || b.masked();
  ASSERT_TRUE(masked);
  auto model = make_model(GetParam().spec, tiny_config());
  for (const CircuitGraph* graph : {&g, &merged}) {
    const ForwardOutputs taped = model->forward_outputs(*graph);
    ForwardOutputs fused;
    {
      const nn::NoGradGuard no_grad;
      const nn::ArenaScope arena;
      fused = model->forward_outputs(*graph);
    }
    const char* what = graph == &g ? "solo" : "merged";
    EXPECT_TRUE(bit_equal_values(fused.prediction, taped.prediction)) << what;
    EXPECT_TRUE(bit_equal_values(fused.embedding, taped.embedding)) << what;
  }
}

/// Fold a matrix's float bits into `h`, element by element.
void fold_bits(util::Fnv1a& h, const nn::Matrix& m) {
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::memcpy(&bits, m.data() + i, sizeof(bits));
    h.u32(bits);
  }
}

// The relative contracts (no-grad == taped, merged == solo) pass for any
// change that moves every path together. These two pin absolute bits, on a
// graph with skip edges and on a merged batch with masked levels. Both run
// on the scalar kernels; the sigmoid and tanh still go through libm's
// expf/tanhf, so another libm may give other digests.

// FNV-1a over the prediction and embedding of the taped and the no-grad
// forward.
TEST_P(ModelSweep, ForwardDigestIsPinned) {
  const ScopedLevel scalar(nn::kern::SimdLevel::kScalar);
  const CircuitGraph g = small_graph();
  ASSERT_FALSE(g.skip_edges.empty());
  const CircuitGraph chain = chain_graph();
  const CircuitGraph merged = CircuitGraph::merge({&g, &chain});
  auto model = make_model(GetParam().spec, tiny_config());
  util::Fnv1a h;
  for (const CircuitGraph* graph : {&g, &merged}) {
    const ForwardOutputs taped = model->forward_outputs(*graph);
    ForwardOutputs fused;
    {
      const nn::NoGradGuard no_grad;
      fused = model->forward_outputs(*graph);
    }
    for (const ForwardOutputs& out : {taped, fused}) {
      fold_bits(h, out.prediction.value());
      fold_bits(h, out.embedding.value());
    }
  }
  EXPECT_EQ(hex(h.digest()), hex(GetParam().forward_digest))
      << GetParam().label << " on the "
      << nn::kern::simd::level_name(nn::kern::simd::active()) << " backend, libc "
      << libc_version();
}

// FNV-1a over every parameter gradient of the L1 loss, accumulated over
// both graphs: the training side of the same pin.
TEST_P(ModelSweep, GradientDigestIsPinned) {
  const ScopedLevel scalar(nn::kern::SimdLevel::kScalar);
  const CircuitGraph g = small_graph();
  const CircuitGraph chain = chain_graph();
  const CircuitGraph merged = CircuitGraph::merge({&g, &chain});
  auto model = make_model(GetParam().spec, tiny_config());
  for (const CircuitGraph* graph : {&g, &merged}) {
    const nn::Matrix target =
        nn::Matrix::from_vector(graph->num_nodes, 1, std::vector<float>(graph->labels));
    nn::l1_loss(model->forward_outputs(*graph).prediction, target).backward();
  }
  util::Fnv1a h;
  for (const auto& [name, t] : model->named_params()) {
    h.str(name).u8(t.has_grad() ? 1 : 0);
    if (t.has_grad()) fold_bits(h, t.grad());
  }
  EXPECT_EQ(hex(h.digest()), hex(GetParam().gradient_digest))
      << GetParam().label << " on the "
      << nn::kern::simd::level_name(nn::kern::simd::active()) << " backend, libc "
      << libc_version();
}

TEST_P(ModelSweep, EmbeddingsHaveConfiguredWidth) {
  const CircuitGraph g = small_graph();
  auto model = make_model(GetParam().spec, tiny_config());
  nn::NoGradGuard no_grad;
  const nn::Tensor emb = model->forward_outputs(g).embedding;
  EXPECT_EQ(emb.rows(), g.num_nodes);
  EXPECT_EQ(emb.cols(), tiny_config().dim);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ModelSweep,
    ::testing::Values(
        SpecCase{{ModelFamily::kGcn, AggKind::kConvSum, false}, "gcn-convsum",
                 0xc6494f4a574960c1ULL, 0x2503a0b6a632c7f0ULL},
        SpecCase{{ModelFamily::kGcn, AggKind::kAttention, false}, "gcn-attn",
                 0x53262837a5eed495ULL, 0x38ef20304d603e44ULL},
        SpecCase{{ModelFamily::kDagConv, AggKind::kDeepSet, false}, "conv-deepset",
                 0x7e302deaa344f635ULL, 0xb191d1a7565b2cdeULL},
        SpecCase{{ModelFamily::kDagConv, AggKind::kGatedSum, false}, "conv-gated",
                 0x90d9ab9e3b8027e1ULL, 0x1a6f8631cb942508ULL},
        SpecCase{{ModelFamily::kDagRec, AggKind::kConvSum, false}, "rec-convsum",
                 0xbfd9281e968af279ULL, 0x9e86de655a4bf92bULL},
        SpecCase{{ModelFamily::kDagRec, AggKind::kDeepSet, false}, "rec-deepset",
                 0x0c179e16ca9361bdULL, 0xa9762f683cff5f95ULL},
        SpecCase{{ModelFamily::kDeepGate, AggKind::kAttention, false}, "deepgate-nosc",
                 0x40e26500c295fb25ULL, 0x3a86cdc73127c614ULL},
        SpecCase{{ModelFamily::kDeepGate, AggKind::kAttention, true}, "deepgate-sc",
                 0x748fd5a2e67e00f9ULL, 0x00bdb4ee655bb474ULL}),
    [](const ::testing::TestParamInfo<SpecCase>& info) {
      std::string label = info.param.label;
      for (auto& c : label)
        if (c == '-') c = '_';
      return label;
    });

TEST(DeepGate, SkipConnectionChangesPrediction) {
  const CircuitGraph g = small_graph();
  ASSERT_FALSE(g.skip_edges.empty());
  ModelConfig cfg = tiny_config();
  ModelSpec with{ModelFamily::kDeepGate, AggKind::kAttention, true};
  ModelSpec without{ModelFamily::kDeepGate, AggKind::kAttention, false};
  nn::NoGradGuard no_grad;
  const auto p_with = make_model(with, cfg)->forward_outputs(g).prediction;
  const auto p_without = make_model(without, cfg)->forward_outputs(g).prediction;
  float diff = 0.0F;
  for (int v = 0; v < g.num_nodes; ++v)
    diff += std::abs(p_with.value().at(v, 0) - p_without.value().at(v, 0));
  EXPECT_GT(diff, 1e-6F);
}

/// A 70-gate AND chain whose input x also feeds the top AND: x reconverges
/// there, one skip edge whose level difference exceeds kMaxPosencDistance.
CircuitGraph long_skip_graph() {
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  Lit acc = x;
  for (int i = 0; i < 70; ++i) acc = a.add_and(acc, make_lit(a.add_input(), false));
  a.add_output(a.add_and(acc, x));
  const GateGraph g = to_gate_graph(a);
  return CircuitGraph::from_gate_graph(g, sim::gate_graph_probabilities(g, 1024, 1));
}

// The Eq. (7) distance clamp through a whole forward: the no-grad forward is
// bitwise the taped one, and on the scalar kernels an FNV-1a digest pins the
// prediction, the embedding and every parameter gradient of the L1 loss.
TEST(DeepGate, ClampedSkipDistanceIsPinned) {
  const CircuitGraph g = long_skip_graph();
  ASSERT_EQ(g.skip_edges.size(), 1U);
  ASSERT_GT(g.skip_edges[0].level_diff, kMaxPosencDistance);
  const ModelSpec spec{ModelFamily::kDeepGate, AggKind::kAttention, true};
  {
    auto model = make_model(spec, tiny_config());
    const ForwardOutputs taped = model->forward_outputs(g);
    ForwardOutputs fused;
    {
      const nn::NoGradGuard no_grad;
      const nn::ArenaScope arena;
      fused = model->forward_outputs(g);
    }
    EXPECT_TRUE(bit_equal_values(fused.prediction, taped.prediction));
    EXPECT_TRUE(bit_equal_values(fused.embedding, taped.embedding));
  }
  const ScopedLevel scalar(nn::kern::SimdLevel::kScalar);
  auto model = make_model(spec, tiny_config());
  const ForwardOutputs out = model->forward_outputs(g);
  const nn::Matrix target = nn::Matrix::from_vector(g.num_nodes, 1, std::vector<float>(g.labels));
  nn::l1_loss(out.prediction, target).backward();
  util::Fnv1a h;
  fold_bits(h, out.prediction.value());
  fold_bits(h, out.embedding.value());
  for (const auto& [name, t] : model->named_params()) {
    h.str(name).u8(t.has_grad() ? 1 : 0);
    if (t.has_grad()) fold_bits(h, t.grad());
  }
  EXPECT_EQ(hex(h.digest()), hex(0xf94b9107a6a6a9deULL))
      << "on the " << nn::kern::simd::level_name(nn::kern::simd::active()) << " backend, libc "
      << libc_version();
}

TEST(DeepGate, IterationOverrideChangesResult) {
  const CircuitGraph g = small_graph();
  auto model = make_deepgate(tiny_config());
  nn::NoGradGuard no_grad;
  const auto p1 = model->forward_outputs(g, 1).prediction;
  const auto p8 = model->forward_outputs(g, 8).prediction;
  float diff = 0.0F;
  for (int v = 0; v < g.num_nodes; ++v)
    diff += std::abs(p1.value().at(v, 0) - p8.value().at(v, 0));
  EXPECT_GT(diff, 1e-6F);
}

TEST(DeepGate, GradcheckThroughWholeModel) {
  // End-to-end finite-difference check of a full DeepGate forward (small
  // dims; checks a sample of parameters).
  const CircuitGraph g = small_graph();
  ModelConfig cfg;
  cfg.dim = 4;
  cfg.iterations = 2;
  cfg.mlp_hidden = 4;
  cfg.seed = 3;
  cfg.use_skip = true;
  auto model = make_deepgate(cfg);
  const nn::Matrix target =
      nn::Matrix::from_vector(g.num_nodes, 1, std::vector<float>(g.labels));

  auto params = model->named_params();
  std::vector<nn::Tensor> sample;
  for (const auto& [name, t] : params) {
    if (name.find(".gru.wz") != std::string::npos ||
        name.find(".agg.q") != std::string::npos ||
        name.find("head1.l0.w") != std::string::npos)
      sample.push_back(t);
  }
  ASSERT_GE(sample.size(), 3U);
  const auto res = nn::gradcheck(
      [&] { return nn::mse_loss(model->forward_outputs(g).prediction, target); }, sample, 1e-2F,
      8e-2F);
  EXPECT_TRUE(res.ok) << "rel=" << res.max_rel_err << " abs=" << res.max_abs_err;
}

TEST(Models, FamilyNames) {
  EXPECT_STREQ(model_family_name(ModelFamily::kGcn), "GCN");
  EXPECT_STREQ(model_family_name(ModelFamily::kDeepGate), "DeepGate");
  ModelSpec spec{ModelFamily::kDeepGate, AggKind::kAttention, true};
  EXPECT_EQ(model_spec_label(spec), "DeepGate / Attention w/ SC");
}

TEST(Models, SeedControlsInitialization) {
  const CircuitGraph g = small_graph();
  ModelConfig a = tiny_config();
  ModelConfig b = tiny_config();
  b.seed = 99;
  nn::NoGradGuard no_grad;
  const auto pa = make_deepgate(a)->forward_outputs(g).prediction;
  const auto pb = make_deepgate(b)->forward_outputs(g).prediction;
  float diff = 0.0F;
  for (int v = 0; v < g.num_nodes; ++v)
    diff += std::abs(pa.value().at(v, 0) - pb.value().at(v, 0));
  EXPECT_GT(diff, 1e-6F);
}

/// A 9-type netlist graph (Table IV w/o transformation) whose last gate is
/// a BUF, the highest type id.
CircuitGraph raw_netlist_graph() {
  netlist::Netlist nl;
  const int a = nl.add_input();
  const int b = nl.add_input();
  const int x = nl.add_gate(netlist::GateType::kXor, {a, b});
  const int n = nl.add_gate(netlist::GateType::kNand, {a, x});
  nl.mark_output(nl.add_gate(netlist::GateType::kBuf, {n}));
  const auto labels = sim::netlist_probabilities(nl, 5000, 1);
  return CircuitGraph::from_netlist(nl, labels);
}

TEST(Models, RawNetlistGraphSupported) {
  // 9-type graphs must run through every family without shape errors.
  const CircuitGraph g = raw_netlist_graph();
  ModelConfig cfg = tiny_config();
  cfg.num_types = 9;
  cfg.dim = 12;  // the one-hot h0 of the baselines needs dim >= num_types
  nn::NoGradGuard no_grad;
  for (auto family : {ModelFamily::kGcn, ModelFamily::kDagConv, ModelFamily::kDagRec,
                      ModelFamily::kDeepGate}) {
    ModelSpec spec{family, AggKind::kConvSum, false};
    if (family == ModelFamily::kDeepGate) spec.agg = AggKind::kAttention;
    const auto pred = make_model(spec, cfg)->forward_outputs(g).prediction;
    EXPECT_EQ(pred.rows(), g.num_nodes);
  }
}

TEST(Models, OneHotInitialStateNarrowerThanTypesIsRejected) {
  // h0 = the gate-type one-hot padded to width dim cannot hold a type id
  // >= dim: construction must refuse the config instead of writing past
  // each state row.
  ModelConfig cfg = tiny_config();
  cfg.num_types = 9;
  cfg.dim = 8;
  for (auto family : {ModelFamily::kGcn, ModelFamily::kDagConv, ModelFamily::kDagRec}) {
    try {
      make_model(ModelSpec{family, AggKind::kConvSum, false}, cfg);
      ADD_FAILURE() << model_family_name(family) << " accepted dim 8 < num_types 9";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("dim = 8"), std::string::npos) << what;
      EXPECT_NE(what.find("num_types = 9"), std::string::npos) << what;
    }
  }
  ModelConfig custom = cfg;
  custom.random_h0 = false;
  EXPECT_THROW(make_recurrent_custom(custom), std::invalid_argument);

  // A random h0 has no one-hot to fit: DeepGate runs at dim < num_types.
  const CircuitGraph g = raw_netlist_graph();
  custom.random_h0 = true;
  nn::NoGradGuard no_grad;
  for (const auto& model : {make_deepgate(cfg), make_recurrent_custom(custom)})
    EXPECT_EQ(model->forward_outputs(g).prediction.rows(), g.num_nodes) << model->name();
}

}  // namespace
}  // namespace dg::gnn
