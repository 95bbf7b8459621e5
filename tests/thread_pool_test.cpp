// Thread pool: lifecycle, chunk coverage, exception propagation, nested
// submission, caller-thread forwards staying off the pool, and the
// end-to-end determinism contracts of the parallel execution layer
// (bit-identical simulation at every thread count; training losses matching
// across worker counts to float tolerance).
#include "util/thread_pool.hpp"

#include "core/deepgate.hpp"
#include "core/incremental_session.hpp"
#include "data/generators_large.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "sim/probability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using namespace dg;

TEST(ThreadPool, StartupShutdown) {
  for (int n : {1, 2, 4, 8}) {
    util::ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
    // Destructor joins; constructing/destructing repeatedly must not hang.
  }
  util::ThreadPool clamped(0);
  EXPECT_EQ(clamped.num_threads(), 1);
}

TEST(ThreadPool, RunChunksCoversEveryChunkExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr int kChunks = 97;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.run_chunks(kChunks, [&](int c) { hits[static_cast<std::size_t>(c)]++; });
  for (int c = 0; c < kChunks; ++c) EXPECT_EQ(hits[static_cast<std::size_t>(c)].load(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (int n : {1, 3, 4}) {
    util::ThreadPool pool(n);
    constexpr std::int64_t kN = 10001;
    constexpr int kChunks = 7;
    std::vector<std::atomic<int>> hits(kN);
    util::parallel_for_chunked(pool, kN, kChunks, [&](int c, std::int64_t lo, std::int64_t hi) {
      EXPECT_EQ(lo, util::chunk_begin(kN, kChunks, c));
      EXPECT_EQ(hi, util::chunk_begin(kN, kChunks, c + 1));
      for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (std::int64_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunkPartitionIsDeterministic) {
  // Fixed boundaries: chunk c of C over n indices starts at n*c/C.
  EXPECT_EQ(util::chunk_begin(10, 4, 0), 0);
  EXPECT_EQ(util::chunk_begin(10, 4, 1), 2);
  EXPECT_EQ(util::chunk_begin(10, 4, 2), 5);
  EXPECT_EQ(util::chunk_begin(10, 4, 3), 7);
  EXPECT_EQ(util::chunk_begin(10, 4, 4), 10);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_chunks(64,
                      [&](int c) {
                        if (c == 13) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.run_chunks(8, [&](int) { count++; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> off_thread{0};
  pool.run_chunks(4, [&](int c) {
    // Nested submission from a worker must not deadlock or drop work, and
    // runs on the thread that issued it.
    const std::thread::id outer = std::this_thread::get_id();
    util::parallel_for_chunked(pool, 16, 4, [&](int, std::int64_t lo, std::int64_t hi) {
      if (std::this_thread::get_id() != outer) off_thread++;
      for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(c * 16 + i)]++;
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  util::ThreadPool pool(4);
  std::atomic<int> calls{0};
  util::parallel_for_chunked(pool, 0, 4, [&](int, std::int64_t, std::int64_t) { calls++; });
  util::parallel_for_chunked(pool, 5, 0, [&](int, std::int64_t, std::int64_t) { calls++; });
  pool.run_chunks(0, [&](int) { calls++; });
  EXPECT_EQ(calls.load(), 0);
  // One index over four chunks: three chunks are empty, the index is
  // covered once.
  std::atomic<int> hits{0};
  util::parallel_for_chunked(pool, 1, 4, [&](int, std::int64_t lo, std::int64_t hi) {
    hits += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(hits.load(), 1);
}

// Kernels run on the thread that calls them: a forward issued from the
// caller thread, on a circuit with levels of 10 or more nodes (enough rows
// for a row-blocked split of the GRU matmuls at 2 lanes), must leave every
// lane's chunk counter untouched.
TEST(ThreadPool, CallerThreadForwardsNeverReachThePool) {
  util::set_global_threads(2);
  deepgate::Engine engine;
  const gnn::CircuitGraph g = deepgate::prepare(data::gen_arbiter(8, 3), 2048, 5);
  std::size_t widest = 0;
  for (const auto& level : g.nodes_at_level) widest = std::max(widest, level.size());
  ASSERT_GE(widest, 10U);
  deepgate::IncrementalSession session(engine, g);

  // A level-1 two-input gate, rewired onto two other primary inputs: the
  // incremental query after the edit runs a forward.
  const std::vector<int>& pis = g.nodes_at_level[0];
  ASSERT_GE(pis.size(), 3U);
  const std::vector<std::vector<int>> fanins = g.fanin_lists();
  int v = -1;
  for (const int u : g.nodes_at_level[1])
    if (fanins[static_cast<std::size_t>(u)].size() == 2) v = u;
  ASSERT_GE(v, 0);
  std::vector<int> rewired;
  for (const int pi : pis) {
    const auto& old = fanins[static_cast<std::size_t>(v)];
    if (rewired.size() < 2 && std::find(old.begin(), old.end(), pi) == old.end())
      rewired.push_back(pi);
  }
  ASSERT_EQ(rewired.size(), 2U);

  const std::vector<util::PoolLaneStats> before = util::global_pool().lane_stats();
  EXPECT_EQ(engine.predict_probabilities(g).size(), static_cast<std::size_t>(g.num_nodes));
  engine.predict_incremental(session);  // first query: full forward
  session.rewire_node(v, rewired);
  engine.predict_incremental(session);
  EXPECT_FALSE(session.last_stats().memo_hit);
  const std::vector<util::PoolLaneStats> after = util::global_pool().lane_stats();

  ASSERT_EQ(before.size(), after.size());
  for (std::size_t lane = 0; lane < before.size(); ++lane)
    EXPECT_EQ(after[lane].chunks, before[lane].chunks) << "lane " << lane;
  util::set_global_threads(1);
}

TEST(ParallelDeterminism, SimulationBitIdenticalAcrossThreadCounts) {
  const aig::Aig mult = data::gen_multiplier(8);
  const aig::GateGraph g = aig::to_gate_graph(mult);
  util::set_global_threads(1);
  const auto serial = sim::gate_graph_probabilities(g, 4096, 42);
  const auto exact_serial = sim::exact_gate_graph_probabilities(g);
  for (int t : {2, 4}) {
    util::set_global_threads(t);
    EXPECT_EQ(sim::gate_graph_probabilities(g, 4096, 42), serial) << t << " threads";
    EXPECT_EQ(sim::exact_gate_graph_probabilities(g), exact_serial) << t << " threads";
  }
  util::set_global_threads(1);
}

TEST(ParallelDeterminism, KernelsBitIdenticalAcrossThreadCounts) {
  util::Rng rng(3);
  const nn::Matrix a = nn::normal(300, 70, 1.0F, rng);
  const nn::Matrix b = nn::normal(70, 90, 1.0F, rng);
  util::set_global_threads(1);
  const nn::Matrix c1 = nn::kern::matmul(a, b);
  const nn::Matrix tn1 = nn::kern::matmul_tn(a, nn::kern::matmul(a, b));
  util::set_global_threads(4);
  const nn::Matrix c4 = nn::kern::matmul(a, b);
  const nn::Matrix tn4 = nn::kern::matmul_tn(a, nn::kern::matmul(a, b));
  util::set_global_threads(1);
  ASSERT_TRUE(c1.same_shape(c4));
  for (std::size_t i = 0; i < c1.size(); ++i) ASSERT_EQ(c1.data()[i], c4.data()[i]);
  for (std::size_t i = 0; i < tn1.size(); ++i) ASSERT_EQ(tn1.data()[i], tn4.data()[i]);
}

TEST(ParallelDeterminism, TrainingLossMatchesAcrossWorkerCounts) {
  // DEEPGATE_THREADS=1 vs =4 end to end: same prepared circuits, same model
  // seed; epoch losses must agree to float tolerance (the only difference is
  // the gradient reduction order).
  std::vector<gnn::CircuitGraph> train_set;
  for (int i = 0; i < 4; ++i)
    train_set.push_back(deepgate::prepare(data::gen_squarer(5 + i), 2048, 9 + i));

  const auto run = [&](int threads) {
    util::set_global_threads(threads);
    deepgate::Options options;
    options.model.dim = 16;
    options.model.iterations = 2;
    options.model.mlp_hidden = 8;
    deepgate::Engine engine(options);
    gnn::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_circuits = 4;
    tc.threads = threads;
    return engine.train(train_set, tc);
  };

  const gnn::TrainResult serial = run(1);
  const gnn::TrainResult parallel = run(4);
  util::set_global_threads(1);
  EXPECT_EQ(serial.threads_used, 1);
  EXPECT_EQ(parallel.threads_used, 4);
  ASSERT_EQ(serial.epoch_loss.size(), parallel.epoch_loss.size());
  // Epoch 1 precedes any optimizer step, so it must match bit-exactly.
  EXPECT_DOUBLE_EQ(serial.epoch_loss[0], parallel.epoch_loss[0]);
  for (std::size_t e = 0; e < serial.epoch_loss.size(); ++e)
    EXPECT_NEAR(serial.epoch_loss[e], parallel.epoch_loss[e],
                1e-4 * (1.0 + std::abs(serial.epoch_loss[e])))
        << "epoch " << e;
}

TEST(ParallelDeterminism, DefaultThreadsHonorsEnv) {
  EXPECT_GE(util::default_num_threads(), 1);
}

}  // namespace
