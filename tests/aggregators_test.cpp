#include "gnn/aggregators.hpp"

#include "nn/gradcheck.hpp"
#include "nn/init.hpp"
#include "nn/ops.hpp"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

namespace dg::gnn {
namespace {

using nn::Tensor;

struct AggFixture {
  int d = 4;
  int num_edges = 5;
  int num_dst = 2;
  std::vector<int> seg{0, 0, 1, 1, 1};
  /// Two skip edges, one beyond the Eq. (7) distance clamp.
  std::vector<SkipSlot> skips{{1, 3}, {4, 70}};
  Tensor h_src, h_query;

  explicit AggFixture(std::uint64_t seed) {
    util::Rng rng(seed);
    h_src = Tensor::leaf(nn::normal(num_edges, d, 0.5F, rng), true);
    h_query = Tensor::leaf(nn::normal(num_dst, d, 0.5F, rng), true);
  }

  /// Runs `agg` over the fixture with its skip edges (2L = 16).
  Tensor forward(const Aggregator& agg) const {
    return agg.forward(h_src, h_query, seg, num_dst, &skips);
  }
};

class AggregatorSweep : public ::testing::TestWithParam<AggKind> {};

TEST_P(AggregatorSweep, OutputShape) {
  AggFixture f(1);
  util::Rng rng(2);
  auto agg = make_aggregator(GetParam(), f.d, 16, rng);
  const Tensor m = f.forward(*agg);
  EXPECT_EQ(m.rows(), f.num_dst);
  EXPECT_EQ(m.cols(), f.d);
}

TEST_P(AggregatorSweep, GradientsFlowToSources) {
  AggFixture f(3);
  util::Rng rng(4);
  auto agg = make_aggregator(GetParam(), f.d, 16, rng);
  nn::NamedParams params;
  agg->collect(params, "agg");
  std::vector<Tensor> leaves{f.h_src};
  for (auto& [n, t] : params) leaves.push_back(t);
  const auto res = nn::gradcheck([&] { return nn::mean_all(f.forward(*agg)); }, leaves);
  EXPECT_TRUE(res.ok) << agg_kind_name(GetParam()) << " rel=" << res.max_rel_err;
}

TEST_P(AggregatorSweep, HasParameters) {
  util::Rng rng(5);
  auto agg = make_aggregator(GetParam(), 8, 16, rng);
  nn::NamedParams params;
  agg->collect(params, "agg");
  EXPECT_GE(params.size(), 1U);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AggregatorSweep,
                         ::testing::Values(AggKind::kConvSum, AggKind::kAttention,
                                           AggKind::kDeepSet, AggKind::kGatedSum));

TEST(Attention, WeightsSumToOnePerDestination) {
  // The attention message is a convex combination of source states: with all
  // sources equal, the message equals that state regardless of scores.
  AggFixture f(6);
  util::Rng rng(7);
  auto agg = make_aggregator(AggKind::kAttention, f.d, 16, rng);
  nn::Matrix same(f.num_edges, f.d);
  for (int e = 0; e < f.num_edges; ++e)
    for (int c = 0; c < f.d; ++c) same.at(e, c) = static_cast<float>(c) + 1.0F;
  const Tensor h_same = nn::constant(same);
  const Tensor m = agg->forward(h_same, f.h_query, f.seg, f.num_dst, nullptr);
  for (int r = 0; r < f.num_dst; ++r)
    for (int c = 0; c < f.d; ++c) EXPECT_NEAR(m.value().at(r, c), c + 1.0F, 1e-5F);
}

TEST(Attention, QueryGradientFlows) {
  AggFixture f(8);
  util::Rng rng(9);
  auto agg = make_aggregator(AggKind::kAttention, f.d, 16, rng);
  const auto res = nn::gradcheck([&] { return nn::mean_all(f.forward(*agg)); }, {f.h_query});
  EXPECT_TRUE(res.ok) << "rel=" << res.max_rel_err;
}

TEST(Attention, PeChangesScores) {
  AggFixture f(10);
  util::Rng rng(11);
  auto agg = make_aggregator(AggKind::kAttention, f.d, 16, rng);
  const Tensor with_pe = f.forward(*agg);
  const Tensor without_pe = agg->forward(f.h_src, f.h_query, f.seg, f.num_dst, nullptr);
  float diff = 0.0F;
  for (std::size_t i = 0; i < with_pe.value().size(); ++i)
    diff += std::abs(with_pe.value().data()[i] - without_pe.value().data()[i]);
  EXPECT_GT(diff, 1e-4F);
}

// The fused no-grad path is bitwise the taped composition with no skip
// list, an empty one (the +0.0 term still added on every edge) and the
// fixture's, whose second edge reads the clamped gamma(kMaxPosencDistance).
TEST(Attention, NoGradIsBitwiseTheTapedForward) {
  AggFixture f(16);
  util::Rng rng(17);
  auto agg = make_aggregator(AggKind::kAttention, f.d, 16, rng);
  const std::vector<SkipSlot> none;
  const std::vector<const std::vector<SkipSlot>*> cases{nullptr, &none, &f.skips};
  for (const std::vector<SkipSlot>* skips : cases) {
    const nn::Matrix taped =
        agg->forward(f.h_src, f.h_query, f.seg, f.num_dst, skips).value();
    const nn::Matrix fused =
        agg->forward_no_grad(f.h_src.value(), f.h_query.value().data(), f.seg, f.num_dst, skips);
    ASSERT_TRUE(fused.same_shape(taped));
    EXPECT_EQ(std::memcmp(fused.data(), taped.data(), taped.size() * sizeof(float)), 0)
        << (skips == nullptr ? "null" : skips->empty() ? "empty" : "fixture");
  }
}

TEST(ConvSum, MeanNormalization) {
  // With identity-like linear weights forced, ConvSum returns the mean of
  // source rows per destination.
  AggFixture f(12);
  util::Rng rng(13);
  auto agg = make_aggregator(AggKind::kConvSum, f.d, 16, rng);
  nn::NamedParams params;
  agg->collect(params, "agg");
  for (auto& [name, t] : params) {
    if (name == "agg.conv.w") {
      t.mutable_value().fill(0.0F);
      for (int i = 0; i < f.d; ++i) t.mutable_value().at(i, i) = 1.0F;
    } else {
      t.mutable_value().fill(0.0F);
    }
  }
  const Tensor m = f.forward(*agg);
  // destination 0 averages edges 0,1; destination 1 edges 2,3,4
  const nn::Matrix& h = f.h_src.value();
  for (int c = 0; c < f.d; ++c) {
    EXPECT_NEAR(m.value().at(0, c), 0.5F * (h.at(0, c) + h.at(1, c)), 1e-5F);
    EXPECT_NEAR(m.value().at(1, c), (h.at(2, c) + h.at(3, c) + h.at(4, c)) / 3.0F, 1e-5F);
  }
}

TEST(GatedSum, GateModulatesMagnitude) {
  // Saturating the gate negative should shrink messages toward zero.
  AggFixture f(14);
  util::Rng rng(15);
  auto agg = make_aggregator(AggKind::kGatedSum, f.d, 16, rng);
  nn::NamedParams params;
  agg->collect(params, "agg");
  const Tensor before = f.forward(*agg);
  for (auto& [name, t] : params) {
    if (name.find("gate.b") != std::string::npos) t.mutable_value().fill(-50.0F);
  }
  const Tensor after = f.forward(*agg);
  double mag_before = 0.0, mag_after = 0.0;
  for (std::size_t i = 0; i < before.value().size(); ++i) {
    mag_before += std::abs(before.value().data()[i]);
    mag_after += std::abs(after.value().data()[i]);
  }
  EXPECT_LT(mag_after, mag_before * 0.05);
}

}  // namespace
}  // namespace dg::gnn
