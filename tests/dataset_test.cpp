#include "data/dataset.hpp"

#include "data/generators_large.hpp"
#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <unistd.h>

namespace dg::data {
namespace {

DatasetConfig tiny_config() {
  DatasetConfig cfg = default_dataset_config(util::BenchScale::kTiny, 3);
  cfg.sim_patterns = 5000;
  return cfg;
}

TEST(Dataset, BuildsAllFamilies) {
  const Dataset ds = build_dataset(tiny_config());
  EXPECT_GE(ds.graphs.size(), 16U);
  ASSERT_EQ(ds.graphs.size(), ds.info.size());
  std::set<std::string> families;
  for (const auto& info : ds.info) families.insert(info.family);
  EXPECT_EQ(families.size(), 4U);
}

TEST(Dataset, LabelsAreProbabilities) {
  const Dataset ds = build_dataset(tiny_config());
  for (const auto& g : ds.graphs) {
    ASSERT_EQ(static_cast<int>(g.labels.size()), g.num_nodes);
    for (float label : g.labels) {
      EXPECT_GE(label, 0.0F);
      EXPECT_LE(label, 1.0F);
    }
  }
}

TEST(Dataset, PiLabelsNearHalf) {
  // Primary inputs see uniform random patterns: p ~ 0.5.
  const Dataset ds = build_dataset(tiny_config());
  for (const auto& g : ds.graphs) {
    for (int v = 0; v < g.num_nodes; ++v) {
      if (g.type_id[static_cast<std::size_t>(v)] == 0) {  // PI
        EXPECT_NEAR(g.labels[static_cast<std::size_t>(v)], 0.5F, 0.05F);
      }
    }
  }
}

TEST(Dataset, SplitIsDisjointAndComplete) {
  const Dataset ds = build_dataset(tiny_config());
  std::vector<gnn::CircuitGraph> train, test;
  ds.split(0.9, 11, train, test);
  EXPECT_EQ(train.size() + test.size(), ds.graphs.size());
  EXPECT_GE(test.size(), 1U);
  EXPECT_GT(train.size(), test.size());
}

TEST(Dataset, SplitDeterministicForSeed) {
  const Dataset ds = build_dataset(tiny_config());
  std::vector<gnn::CircuitGraph> tr1, te1, tr2, te2;
  ds.split(0.9, 11, tr1, te1);
  ds.split(0.9, 11, tr2, te2);
  ASSERT_EQ(te1.size(), te2.size());
  for (std::size_t i = 0; i < te1.size(); ++i)
    EXPECT_EQ(te1[i].num_nodes, te2[i].num_nodes);
}

/// Content fingerprint for disjointness checks: two equal graphs serialize
/// to the same bytes, two different graphs to different bytes (with
/// overwhelming probability under FNV-1a).
std::uint64_t graph_fingerprint(const gnn::CircuitGraph& g) {
  std::vector<std::uint8_t> bytes;
  g.serialize(bytes);
  return util::fnv1a_bytes(bytes.data(), bytes.size());
}

TEST(Dataset, SplitIsBitExactAndDisjointForFixedSeed) {
  const Dataset ds = build_dataset(tiny_config());
  std::multiset<std::uint64_t> all;
  for (const auto& g : ds.graphs) all.insert(graph_fingerprint(g));

  std::vector<gnn::CircuitGraph> tr1, te1, tr2, te2;
  ds.split(0.9, 23, tr1, te1);
  ds.split(0.9, 23, tr2, te2);
  ASSERT_EQ(tr1.size(), tr2.size());
  ASSERT_EQ(te1.size(), te2.size());
  for (std::size_t i = 0; i < tr1.size(); ++i)
    EXPECT_TRUE(gnn::bit_equal(tr1[i], tr2[i])) << "train " << i;
  for (std::size_t i = 0; i < te1.size(); ++i)
    EXPECT_TRUE(gnn::bit_equal(te1[i], te2[i])) << "test " << i;

  // Train/test partition the dataset: together they reproduce the full
  // multiset of fingerprints, and (duplicates aside) share no graph.
  std::multiset<std::uint64_t> split_union;
  std::set<std::uint64_t> train_set, test_set;
  for (const auto& g : tr1) {
    const std::uint64_t f = graph_fingerprint(g);
    split_union.insert(f);
    train_set.insert(f);
  }
  for (const auto& g : te1) {
    const std::uint64_t f = graph_fingerprint(g);
    split_union.insert(f);
    test_set.insert(f);
  }
  EXPECT_EQ(split_union, all);
  if (all.size() == std::set<std::uint64_t>(all.begin(), all.end()).size()) {
    for (const std::uint64_t f : test_set)
      EXPECT_EQ(train_set.count(f), 0U) << "graph in both train and test";
  }
}

TEST(Dataset, SplitGuardsDegenerateInputs) {
  std::vector<gnn::CircuitGraph> train, test;

  // Empty dataset: both halves empty, no crash.
  const Dataset empty;
  empty.split(0.9, 1, train, test);
  EXPECT_TRUE(train.empty());
  EXPECT_TRUE(test.empty());

  const Dataset ds = build_dataset(tiny_config());
  // Fraction 0: everything lands in test.
  ds.split(0.0, 1, train, test);
  EXPECT_TRUE(train.empty());
  EXPECT_EQ(test.size(), ds.graphs.size());
  // Fraction 1: everything lands in train.
  ds.split(1.0, 1, train, test);
  EXPECT_EQ(train.size(), ds.graphs.size());
  EXPECT_TRUE(test.empty());
  // Out-of-range fractions clamp instead of over/under-flowing.
  ds.split(-0.5, 1, train, test);
  EXPECT_TRUE(train.empty());
  EXPECT_EQ(test.size(), ds.graphs.size());
  ds.split(1.5, 1, train, test);
  EXPECT_EQ(train.size(), ds.graphs.size());
  EXPECT_TRUE(test.empty());
}

TEST(Dataset, StatsCoverTableOneColumns) {
  const Dataset ds = build_dataset(tiny_config());
  const auto stats = dataset_stats(ds);
  ASSERT_EQ(stats.size(), 4U);
  EXPECT_EQ(stats[0].family, "EPFL");
  EXPECT_EQ(stats[1].family, "ITC99");
  for (const auto& s : stats) {
    EXPECT_GT(s.count, 0U);
    EXPECT_LE(s.min_nodes, s.max_nodes);
    EXPECT_LE(s.min_level, s.max_level);
    EXPECT_GE(s.min_nodes, 36U);   // paper envelope
    EXPECT_LE(s.max_nodes, 3214U);
    EXPECT_GE(s.min_level, 3);
    EXPECT_LE(s.max_level, 24);
  }
}

void expect_table_one_pin(const Dataset& ds, const char* what) {
  // dataset_stats of tiny_config() (seed 3, 5000 patterns); shard_size 8.
  const std::vector<FamilyStats> expected = {
      {"EPFL", 4, 54, 61, 14, 15},
      {"ITC99", 18, 36, 150, 4, 9},
      {"IWLS", 4, 41, 217, 6, 16},
      {"Opencores", 4, 72, 185, 8, 17},
  };
  const auto stats = dataset_stats(ds);
  ASSERT_EQ(stats.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(stats[i].family, expected[i].family) << what;
    EXPECT_EQ(stats[i].count, expected[i].count) << what << ' ' << expected[i].family;
    EXPECT_EQ(stats[i].min_nodes, expected[i].min_nodes) << what << ' ' << expected[i].family;
    EXPECT_EQ(stats[i].max_nodes, expected[i].max_nodes) << what << ' ' << expected[i].family;
    EXPECT_EQ(stats[i].min_level, expected[i].min_level) << what << ' ' << expected[i].family;
    EXPECT_EQ(stats[i].max_level, expected[i].max_level) << what << ' ' << expected[i].family;
  }
}

TEST(Dataset, TableOneStatsArePinned) {
  expect_table_one_pin(build_dataset(tiny_config(), BuildOptions{}), "generated");

  // The same rows from a cold cache build and from the shard files it wrote.
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("dg_table1_pin_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  BuildOptions opts;
  opts.cache_dir = dir.string();
  const Dataset cold = build_dataset(tiny_config(), opts);
  ASSERT_FALSE(cold.shard_files.empty());
  expect_table_one_pin(cold, "cold cache");
  expect_table_one_pin(build_dataset(tiny_config(), opts), "warm cache");
  std::filesystem::remove_all(dir);
}

TEST(Dataset, PairedDatasetAligned) {
  const PairedDataset pd = build_paired_dataset("EPFL", 4, 5000, 17);
  EXPECT_EQ(pd.raw.size(), pd.aig.size());
  EXPECT_GE(pd.raw.size(), 2U);
  for (std::size_t i = 0; i < pd.raw.size(); ++i) {
    EXPECT_EQ(pd.raw[i].num_types, 9);
    EXPECT_EQ(pd.aig[i].num_types, 3);
    EXPECT_GT(pd.raw[i].num_nodes, 0);
    EXPECT_GT(pd.aig[i].num_nodes, 0);
  }
}

TEST(Dataset, GraphFromAigHandlesConstantOutputs) {
  // gen_squarer produces an identically-zero output bit; graph_from_aig must
  // cope by dropping it rather than throwing.
  const auto g = graph_from_aig(gen_squarer(12), 2000, 5);
  EXPECT_GT(g.num_nodes, 100);
  EXPECT_EQ(g.num_types, 3);
}

TEST(Dataset, DefaultConfigScalesWithBenchScale) {
  const auto tiny = default_dataset_config(util::BenchScale::kTiny, 1);
  const auto small = default_dataset_config(util::BenchScale::kSmall, 1);
  const auto paper = default_dataset_config(util::BenchScale::kPaper, 1);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_LE(tiny.families[f].num_subcircuits, small.families[f].num_subcircuits);
    EXPECT_LE(small.families[f].num_subcircuits, paper.families[f].num_subcircuits);
  }
  // Paper scale reproduces Table I counts exactly.
  EXPECT_EQ(paper.families[0].num_subcircuits, 828U);
  EXPECT_EQ(paper.families[1].num_subcircuits, 7560U);
  EXPECT_EQ(paper.families[2].num_subcircuits, 1281U);
  EXPECT_EQ(paper.families[3].num_subcircuits, 1155U);
}

}  // namespace
}  // namespace dg::data
