// Determinism contract of the sharded dataset pipeline: build_dataset output
// is bit-identical at every thread count, across cold/warm cache runs, and a
// ShardStream over the cached files replays the exact same graphs. Also
// pins the streamed trainer to the sequential trainer for one-chunk streams.
#include "data/dataset.hpp"

#include "data/shard_io.hpp"
#include "gnn/models.hpp"
#include "gnn/trainer.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

namespace dg::data {
namespace {

namespace fs = std::filesystem;

DatasetConfig tiny_config(std::uint64_t seed = 3) {
  DatasetConfig cfg = default_dataset_config(util::BenchScale::kTiny, seed);
  cfg.sim_patterns = 4000;
  return cfg;
}

void expect_datasets_bit_equal(const Dataset& a, const Dataset& b, const char* what) {
  ASSERT_EQ(a.graphs.size(), b.graphs.size()) << what;
  ASSERT_EQ(a.info.size(), b.info.size()) << what;
  for (std::size_t i = 0; i < a.graphs.size(); ++i) {
    EXPECT_TRUE(gnn::bit_equal(a.graphs[i], b.graphs[i])) << what << ": graph " << i;
    EXPECT_EQ(a.info[i].family, b.info[i].family) << what << ": info " << i;
  }
}

/// Restores the default pool when a test body returns or fails.
struct PoolGuard {
  ~PoolGuard() { util::set_global_threads(util::default_num_threads()); }
};

TEST(DatasetDeterminism, BitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const DatasetConfig cfg = tiny_config();
  const BuildOptions opts;  // no cache: pure generation path

  util::set_global_threads(1);
  const Dataset serial = build_dataset(cfg, opts);
  ASSERT_GE(serial.graphs.size(), 16U);

  for (const int threads : {4, 8}) {
    util::set_global_threads(threads);
    const Dataset parallel = build_dataset(cfg, opts);
    expect_datasets_bit_equal(serial, parallel,
                              threads == 4 ? "threads=4 vs 1" : "threads=8 vs 1");
  }
}

TEST(DatasetDeterminism, ShardSizeIsPartOfTheKeyNotTheOrderWithinAShard) {
  // Different shard sizes legitimately produce different datasets (different
  // RNG partitioning) — but each shard size must itself be deterministic.
  PoolGuard guard;
  const DatasetConfig cfg = tiny_config();
  BuildOptions opts;
  opts.shard_size = 3;
  util::set_global_threads(1);
  const Dataset a = build_dataset(cfg, opts);
  util::set_global_threads(4);
  const Dataset b = build_dataset(cfg, opts);
  expect_datasets_bit_equal(a, b, "shard_size=3 across thread counts");
  EXPECT_NE(dataset_config_hash(cfg, opts), dataset_config_hash(cfg, BuildOptions{}));
}

TEST(DatasetDeterminism, WarmCacheReproducesColdBitExactly) {
  PoolGuard guard;
  const fs::path dir =
      fs::temp_directory_path() / ("dg_dataset_cache_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const DatasetConfig cfg = tiny_config(5);
  BuildOptions opts;
  opts.cache_dir = dir.string();

  util::set_global_threads(4);
  const Dataset cold = build_dataset(cfg, opts);
  ASSERT_FALSE(cold.shard_files.empty());
  for (const auto& path : cold.shard_files)
    EXPECT_TRUE(fs::exists(path)) << path;

  // Warm run — and at a different thread count, which must not matter.
  util::set_global_threads(2);
  const Dataset warm = build_dataset(cfg, opts);
  expect_datasets_bit_equal(cold, warm, "warm vs cold");

  // And a warm run through the facade default options path (env-free).
  util::set_global_threads(1);
  const Dataset warm2 = build_dataset(cfg, opts);
  expect_datasets_bit_equal(cold, warm2, "second warm vs cold");
  fs::remove_all(dir);
}

TEST(DatasetDeterminism, ShardStreamReplaysTheDataset) {
  PoolGuard guard;
  const fs::path dir =
      fs::temp_directory_path() / ("dg_dataset_stream_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const DatasetConfig cfg = tiny_config(7);
  BuildOptions opts;
  opts.cache_dir = dir.string();
  util::set_global_threads(4);
  const Dataset ds = build_dataset(cfg, opts);
  ASSERT_FALSE(ds.shard_files.empty());

  ShardStream stream(ds.shard_files);
  std::vector<gnn::CircuitGraph> streamed;
  std::vector<gnn::CircuitGraph> chunk;
  while (stream.next(chunk))
    for (auto& g : chunk) streamed.push_back(std::move(g));
  ASSERT_EQ(streamed.size(), ds.graphs.size());
  for (std::size_t i = 0; i < streamed.size(); ++i)
    EXPECT_TRUE(gnn::bit_equal(ds.graphs[i], streamed[i])) << "graph " << i;

  // reset() rewinds for the next epoch.
  stream.reset();
  ASSERT_TRUE(stream.next(chunk));
  EXPECT_TRUE(gnn::bit_equal(ds.graphs[0], chunk[0]));
  fs::remove_all(dir);
}

TEST(DatasetDeterminism, StreamedTrainingMatchesSequentialForOneChunk) {
  // A stream with a single chunk holding the whole (tiny) set must reproduce
  // the sequential trainer bit-exactly, epoch for epoch.
  PoolGuard guard;
  util::set_global_threads(1);
  DatasetConfig cfg = tiny_config(9);
  cfg.families.resize(1);
  cfg.families[0].num_subcircuits = 4;
  const Dataset ds = build_dataset(cfg, BuildOptions{});
  ASSERT_GE(ds.graphs.size(), 2U);

  struct OneChunk final : gnn::GraphStream {
    const std::vector<gnn::CircuitGraph>* graphs;
    bool done = false;
    bool next(std::vector<gnn::CircuitGraph>& out) override {
      if (done) return false;
      out = *graphs;
      done = true;
      return true;
    }
    void reset() override { done = false; }
  };

  gnn::ModelConfig mc;
  mc.dim = 12;
  mc.iterations = 3;
  mc.mlp_hidden = 8;
  mc.seed = 21;
  gnn::TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 3e-3F;
  tc.seed = 2;
  tc.batch_circuits = 2;
  tc.threads = 1;

  auto model_seq = gnn::make_deepgate(mc);
  const gnn::TrainResult seq = gnn::train(*model_seq, ds.graphs, tc);

  OneChunk stream;
  stream.graphs = &ds.graphs;
  auto model_stream = gnn::make_deepgate(mc);
  const gnn::TrainResult streamed = gnn::train_streaming(*model_stream, stream, tc);

  ASSERT_EQ(seq.epoch_loss.size(), streamed.epoch_loss.size());
  for (std::size_t e = 0; e < seq.epoch_loss.size(); ++e)
    EXPECT_DOUBLE_EQ(seq.epoch_loss[e], streamed.epoch_loss[e]) << "epoch " << e;
}

}  // namespace
}  // namespace dg::data
