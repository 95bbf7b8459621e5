// The no-grad forward's arena footprint (ctest label: serving). A forward
// keeps its level states in one slab and frees each level step's scratch
// before the next step, so the arena of the thread that runs it holds a
// fixed set of small buffers whatever the graph's depth: the set stops
// growing after one round over the traffic, it holds no buffer per level,
// and one forward acquires a bounded number of buffers per level step.
#include "core/deepgate.hpp"
#include "data/generators_large.hpp"
#include "nn/arena.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

namespace dg {
namespace {

using gnn::CircuitGraph;

// Buffers one attention level step acquires: the gathered sources, the
// query, key and score columns, the softmax output with its two
// per-segment reductions, and the messages. The GRU step writes through
// the forward's work area and the state slab, so it acquires none.
constexpr std::size_t kBuffersPerLevelStep = 8;

// Buffers one forward acquires per level outside its level steps: none.
// The attention aggregator projects a level's skip-edge encodings into the
// score column of the level step, so no projection outlives the step.
constexpr std::size_t kBuffersPerLevel = 0;

// Buffers one forward acquires once: the sweep buffers, the embedding and
// its tape node, and per gate type the regressor's gather, MLP layers and
// scatter with their tape nodes (about 18 each). Both graphs here use 55.
constexpr std::size_t kBuffersPerForward = 64;

// The most buffers the arena may create over all rounds: one per size
// class a level step or the regressor holds at once (41 here). Per-level
// state buffers would need two per level (the states and their sweep-start
// copies), over twice either graph's depth.
constexpr std::size_t kMaxArenaBuffers = 64;

std::size_t widest_level(const CircuitGraph& g) {
  std::size_t widest = 0;
  for (const std::vector<int>& nodes : g.nodes_at_level) widest = std::max(widest, nodes.size());
  return widest;
}

/// Level steps of one DeepGate forward: every level with edges, per sweep.
std::size_t level_steps(const CircuitGraph& g, int iterations) {
  std::size_t steps = 0;
  for (int L = 0; L < g.num_levels; ++L) {
    steps += g.fwd_skip[static_cast<std::size_t>(L)].empty() ? 0 : 1;
    steps += g.rev[static_cast<std::size_t>(L)].empty() ? 0 : 1;
  }
  return steps * static_cast<std::size_t>(iterations);
}

std::size_t acquisitions(const nn::ArenaStats& from, const nn::ArenaStats& to) {
  return (to.reuses - from.reuses) + (to.heap_allocs - from.heap_allocs);
}

TEST(ArenaMemory, SlabForwardHoldsAFixedBufferSet) {
  if (!nn::arena_enabled()) GTEST_SKIP() << "DEEPGATE_ARENA=off";
  // A pooled engine: each caller-thread forward borrows a helper lane, so
  // the sweeps run with the second, sweep-start slab.
  util::set_global_threads(2);
  deepgate::Options options;  // default spec: DeepGate w/ skip connections
  options.model.dim = 32;
  options.model.iterations = 2;
  options.model.mlp_hidden = 16;
  const deepgate::Engine engine(options);
  const CircuitGraph wide = deepgate::prepare(data::gen_multiplier(6), 200, 1);
  const CircuitGraph deep = deepgate::prepare(data::gen_arbiter(4, 8), 200, 2);
  ASSERT_GT(deep.num_levels, wide.num_levels);
  ASSERT_GT(widest_level(wide), widest_level(deep));
  ASSERT_GT(static_cast<std::size_t>(wide.num_levels), kMaxArenaBuffers)
      << "the graphs must be deeper than the buffer bound for it to rule out per-level buffers";

  const nn::ArenaStats fresh = nn::arena_stats();
  const std::vector<float> want_wide = engine.predict_probabilities(wide);
  const std::vector<float> want_deep = engine.predict_probabilities(deep);
  const nn::ArenaStats warm = nn::arena_stats();
  EXPECT_GT(warm.reuses, fresh.reuses) << "arena never consulted";

  for (int round = 1; round <= 3; ++round) {
    EXPECT_EQ(engine.predict_probabilities(wide), want_wide) << "round " << round;
    EXPECT_EQ(engine.predict_probabilities(deep), want_deep) << "round " << round;
    const nn::ArenaStats now = nn::arena_stats();
    EXPECT_EQ(now.heap_bytes, warm.heap_bytes)
        << "round " << round << ": the arena grew by " << (now.heap_bytes - warm.heap_bytes)
        << " bytes after the warm-up round";
  }
  EXPECT_LE(nn::arena_stats().heap_allocs - fresh.heap_allocs, kMaxArenaBuffers)
      << "the arena holds buffers in proportion to depth";

  for (const CircuitGraph* g : {&wide, &deep}) {
    const nn::ArenaStats before = nn::arena_stats();
    (void)engine.predict_probabilities(*g);
    const std::size_t acquired = acquisitions(before, nn::arena_stats());
    const std::size_t steps = level_steps(*g, options.model.iterations);
    const std::size_t levels = static_cast<std::size_t>(g->num_levels);
    EXPECT_LE(acquired, kBuffersPerLevelStep * steps + kBuffersPerLevel * levels +
                            kBuffersPerForward)
        << levels << " levels, " << steps << " level steps";
  }
  util::set_global_threads(util::default_num_threads());
}

}  // namespace
}  // namespace dg
