#include "gnn/incremental.hpp"

#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

#include <atomic>
#include <cassert>
#include <map>
#include <stdexcept>

namespace dg::gnn {

using nn::Tensor;

namespace {

std::atomic<int> g_memo_override{-1};  // -1 = follow env, 0 = off, 1 = on

}  // namespace

bool incremental_memo_enabled() {
  const int o = g_memo_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return util::env_str("DEEPGATE_INCREMENTAL_MEMO", "on") != "off";
}

void incremental_memo_set_enabled(bool on) {
  g_memo_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

void incremental_memo_clear_override() {
  g_memo_override.store(-1, std::memory_order_relaxed);
}

double incremental_memo_cap_mb() {
  return util::env_double("DEEPGATE_INCREMENTAL_MEMO_MB", 512.0);
}

void GraphSnapshot::capture(const CircuitGraph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes);
  generation = g.generation;
  num_nodes = g.num_nodes;
  num_levels = g.num_levels;
  level = g.level;
  pos = g.node_pos;
  type = g.type_id;
  fanins = g.fanin_lists();
  fanouts.assign(n, {});
  for (const auto& [src, dst] : g.edges) fanouts[static_cast<std::size_t>(src)].push_back(dst);
  skip_fanins.assign(n, {});
  for (const auto& e : g.skip_edges)
    skip_fanins[static_cast<std::size_t>(e.dst)].emplace_back(e.src, e.level_diff);
  const auto lv = static_cast<std::size_t>(g.num_levels);
  fwd_nonempty.assign(lv, 0);
  fwd_skip_nonempty.assign(lv, 0);
  rev_nonempty.assign(lv, 0);
  for (std::size_t L = 0; L < lv; ++L) {
    fwd_nonempty[L] = g.fwd[L].empty() ? 0 : 1;
    fwd_skip_nonempty[L] = g.fwd_skip[L].empty() ? 0 : 1;
    rev_nonempty[L] = g.rev[L].empty() ? 0 : 1;
  }
}

std::vector<std::uint8_t> dirty_seeds(const CircuitGraph& g, const GraphSnapshot& snap,
                                      const std::vector<int>& old_of_new,
                                      const DirtySeedOptions& opts) {
  const auto n = static_cast<std::size_t>(g.num_nodes);
  assert(old_of_new.size() == n);
  std::vector<std::uint8_t> dirty(n, 0);

  const std::vector<std::vector<int>> fanins = g.fanin_lists();
  std::vector<std::vector<int>> fanouts(n);
  for (const auto& [src, dst] : g.edges) fanouts[static_cast<std::size_t>(src)].push_back(dst);
  std::vector<std::vector<std::pair<int, int>>> skip_fanins(n);
  for (const auto& e : g.skip_edges)
    skip_fanins[static_cast<std::size_t>(e.dst)].emplace_back(e.src, e.level_diff);

  // A neighbor list matches when it has the same length and every current
  // neighbor existed at the snapshot with the same old id in the same slot.
  const auto lists_match = [&](const std::vector<int>& now, const std::vector<int>& then) {
    if (now.size() != then.size()) return false;
    for (std::size_t i = 0; i < now.size(); ++i)
      if (old_of_new[static_cast<std::size_t>(now[i])] != then[i]) return false;
    return true;
  };

  for (int v = 0; v < g.num_nodes; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int o = old_of_new[vi];
    if (o < 0 || o >= snap.num_nodes) {
      dirty[vi] = 1;  // node did not exist at the memoized generation
      continue;
    }
    const auto oi = static_cast<std::size_t>(o);
    if (snap.type[oi] != g.type_id[vi]) {
      dirty[vi] = 1;
      continue;
    }
    if (opts.track_layout &&
        (snap.level[oi] != g.level[vi] || snap.pos[oi] != g.node_pos[vi])) {
      dirty[vi] = 1;  // random-h0 cell and batch coordinates both moved
      continue;
    }
    if (!lists_match(fanins[vi], snap.fanins[oi])) {
      dirty[vi] = 1;
      continue;
    }
    const auto& sk_now = skip_fanins[vi];
    const auto& sk_then = snap.skip_fanins[oi];
    bool skip_ok = sk_now.size() == sk_then.size();
    for (std::size_t i = 0; skip_ok && i < sk_now.size(); ++i)
      skip_ok = old_of_new[static_cast<std::size_t>(sk_now[i].first)] == sk_then[i].first &&
                sk_now[i].second == sk_then[i].second;
    if (!skip_ok) {
      dirty[vi] = 1;
      continue;
    }
    if (opts.track_reverse && !lists_match(fanouts[vi], snap.fanouts[oi])) {
      dirty[vi] = 1;
      continue;
    }
    if (opts.track_layout) {
      // Same level then and now (layout matched above) — but the level's
      // update pattern flips when a batch goes (non)empty.
      const auto L = static_cast<std::size_t>(g.level[vi]);
      const auto oL = static_cast<std::size_t>(snap.level[oi]);
      const std::uint8_t fwd_now = g.fwd[L].empty() ? 0 : 1;
      const std::uint8_t fws_now = g.fwd_skip[L].empty() ? 0 : 1;
      if (fwd_now != snap.fwd_nonempty[oL] || fws_now != snap.fwd_skip_nonempty[oL]) {
        dirty[vi] = 1;
        continue;
      }
      if (opts.track_reverse) {
        const std::uint8_t rev_now = g.rev[L].empty() ? 0 : 1;
        if (rev_now != snap.rev_nonempty[oL]) dirty[vi] = 1;
      }
    }
  }
  return dirty;
}

namespace {

/// h0 per-level matrices of the current graph — checkpoint 0. Fresh values
/// equal the memoized checkpoint 0 bitwise on every clean row: the random
/// stream is a pure function of (seed, level, row) and the padded variant of
/// the gate type (see model_common's h0_row_seed).
std::vector<nn::Matrix> h0_levels(const CircuitGraph& g, const ModelConfig& cfg,
                                  bool random_h0) {
  std::vector<Tensor> states = init_level_states(g, cfg.dim, random_h0, cfg.seed);
  std::vector<nn::Matrix> mats;
  mats.reserve(states.size());
  for (const Tensor& t : states) mats.push_back(t.value());
  return mats;
}

/// One sweep of the cone-limited path. `prev` holds the sweep-entry states
/// (current values), `memo_next` the memoized post-sweep states in the
/// snapshot layout. `dirty` is the evolving per-node dirty set: rows whose
/// value after this sweep may differ from the memo; it only grows.
std::vector<nn::Matrix> partial_sweep(const DirectedLayer& layer, const CircuitGraph& g,
                                      const std::vector<nn::Matrix>& prev,
                                      const std::vector<nn::Matrix>& memo_next,
                                      const GraphSnapshot& snap,
                                      const std::vector<int>& old_of_new,
                                      std::vector<std::uint8_t>& dirty) {
  // Entry values carry through levels whose batch is empty; processed levels
  // are overwritten below, in sweep order, so source gathers always see the
  // sweep's current values.
  std::vector<nn::Matrix> cur = prev;

  const auto process_level = [&](int L) {
    const std::size_t lvl = static_cast<std::size_t>(L);
    const LevelBatch& batch = layer.batch_at(g, L);
    if (batch.empty()) return;  // cur[L] keeps entry values; dirtiness carries
    const auto& nodes = g.nodes_at_level[lvl];
    const int num_dst = static_cast<int>(nodes.size());
    const int dim = prev[lvl].cols();

    std::vector<std::uint8_t> row_dirty(static_cast<std::size_t>(num_dst), 0);
    for (int r = 0; r < num_dst; ++r)
      if (dirty[static_cast<std::size_t>(nodes[static_cast<std::size_t>(r)])] != 0)
        row_dirty[static_cast<std::size_t>(r)] = 1;
    int e = 0;
    for (const auto& group : batch.groups)
      for (const int pos : group.pos) {
        const int src_node = g.nodes_at_level[static_cast<std::size_t>(group.level)]
                                             [static_cast<std::size_t>(pos)];
        if (dirty[static_cast<std::size_t>(src_node)] != 0)
          row_dirty[static_cast<std::size_t>(batch.seg[static_cast<std::size_t>(e)])] = 1;
        ++e;
      }

    std::vector<int> rows;
    nn::Matrix out(num_dst, dim);
    for (int r = 0; r < num_dst; ++r) {
      if (row_dirty[static_cast<std::size_t>(r)] != 0) {
        rows.push_back(r);
        continue;
      }
      // Clean row: its post-sweep value is the memo's, located by node
      // identity in the snapshot layout (for a clean node that is the same
      // (level, pos) cell, but the identity lookup stays correct even so).
      const int v = nodes[static_cast<std::size_t>(r)];
      const int o = old_of_new[static_cast<std::size_t>(v)];
      assert(o >= 0);
      const float* src = memo_next[static_cast<std::size_t>(snap.level[static_cast<std::size_t>(o)])]
                             .row_ptr(snap.pos[static_cast<std::size_t>(o)]);
      std::copy(src, src + dim, out.row_ptr(r));
    }
    if (!rows.empty()) layer.run_level_rows(g, L, rows, cur, prev[lvl], out);
    for (const int r : rows)
      dirty[static_cast<std::size_t>(nodes[static_cast<std::size_t>(r)])] = 1;
    cur[lvl] = std::move(out);
  };

  if (!layer.reversed()) {
    for (int L = 1; L < g.num_levels; ++L) process_level(L);
  } else {
    for (int L = g.num_levels - 2; L >= 0; --L) process_level(L);
  }
  return cur;
}

/// Stitch per-level matrices into node order (the Matrix twin of
/// full_from_levels, bitwise: both are plain row copies).
nn::Matrix stitch_levels(const std::vector<nn::Matrix>& states, const CircuitGraph& g, int dim) {
  nn::Matrix full(g.num_nodes, dim);
  for (int v = 0; v < g.num_nodes; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const float* src = states[static_cast<std::size_t>(g.level[vi])].row_ptr(g.node_pos[vi]);
    std::copy(src, src + dim, full.row_ptr(v));
  }
  return full;
}

void refresh_memo_outputs(LevelMemo& memo, const CircuitGraph& g, const nn::Matrix& pred,
                          const nn::Matrix& emb) {
  GraphSnapshot snap;
  snap.capture(g);
  memo.snap = std::move(snap);
  memo.prediction = pred;
  memo.embedding = emb;
  memo.valid = true;
}

}  // namespace

ForwardOutputs run_layered_forward(const CircuitGraph& g,
                                   const std::vector<const DirectedLayer*>& sweeps,
                                   const Regressor& regressor, const ModelConfig& cfg,
                                   LevelMemo* memo, IncrementalRunStats* stats) {
  count_full_forward();
  if (stats != nullptr) *stats = {};

  const bool capture = memo != nullptr;
  const double est_mb = static_cast<double>(sweeps.size() + 1) *
                        static_cast<double>(g.num_nodes) * static_cast<double>(cfg.dim) *
                        4.0 / (1024.0 * 1024.0);
  const bool store_checkpoints = capture && est_mb <= incremental_memo_cap_mb();

  std::vector<Tensor> states = init_level_states(g, cfg.dim, cfg.random_h0, cfg.seed);
  const std::vector<Tensor> x_lvl = level_onehot(g);

  std::vector<std::vector<nn::Matrix>> checkpoints;
  const auto snapshot_states = [&]() {
    std::vector<nn::Matrix> mats;
    mats.reserve(states.size());
    for (const Tensor& t : states) mats.push_back(t.value());
    checkpoints.push_back(std::move(mats));
  };
  if (store_checkpoints) snapshot_states();

  std::map<const DirectedLayer*, DirectedLayer::Scratch> scratch;
  for (const DirectedLayer* layer : sweeps) {
    const std::vector<Tensor> queries = states;
    layer->run(g, states, queries, x_lvl, &scratch[layer]);
    if (store_checkpoints) snapshot_states();
  }

  const Tensor h = full_from_levels(states, g);
  const Tensor pred = regressor.forward(h, g);

  if (capture) {
    memo->checkpoints = std::move(checkpoints);
    memo->has_checkpoints = store_checkpoints;
    refresh_memo_outputs(*memo, g, pred.value(), h.value());
  }
  return {pred, h};
}

ForwardOutputs run_layered_incremental(const CircuitGraph& g,
                                       const std::vector<const DirectedLayer*>& sweeps,
                                       const Regressor& regressor, const ModelConfig& cfg,
                                       IncrementalState* state,
                                       const std::vector<int>& old_of_new,
                                       IncrementalRunStats* stats) {
  if (nn::grad_enabled())
    throw std::logic_error("run_layered_incremental: requires nn::NoGradGuard");
  if (g.is_batch())
    throw std::invalid_argument("run_layered_incremental: merged batch graphs not supported");

  auto* layered = dynamic_cast<LayeredIncrementalState*>(state);
  if (layered == nullptr || !incremental_memo_enabled()) {
    // The caller resets its identity map after every query, so a memo left
    // behind by an earlier enabled run must not survive a disabled one.
    if (layered != nullptr) layered->memo = {};
    return run_layered_forward(g, sweeps, regressor, cfg, nullptr, stats);
  }
  LevelMemo& memo = layered->memo;

  // Unchanged generation: replay the cached outputs — zero propagation.
  if (memo.valid && memo.snap.generation == g.generation &&
      memo.snap.num_nodes == g.num_nodes) {
    if (stats != nullptr) {
      *stats = {};
      stats->memo_hit = true;
    }
    static obs::Counter& memo_hits = obs::counter("gnn.memo.hits");
    memo_hits.add();
    return {nn::constant(memo.prediction), nn::constant(memo.embedding)};
  }
  // Memo enabled but the generation moved on: some propagation is required.
  static obs::Counter& memo_misses = obs::counter("gnn.memo.misses");
  memo_misses.add();

  const bool can_partial = memo.valid && memo.has_checkpoints &&
                           memo.checkpoints.size() == sweeps.size() + 1 &&
                           old_of_new.size() == static_cast<std::size_t>(g.num_nodes) &&
                           g.num_nodes > 0;
  if (!can_partial) return run_layered_forward(g, sweeps, regressor, cfg, &memo, stats);

  const double est_mb = static_cast<double>(sweeps.size() + 1) *
                        static_cast<double>(g.num_nodes) * static_cast<double>(cfg.dim) *
                        4.0 / (1024.0 * 1024.0);
  if (est_mb > incremental_memo_cap_mb()) {
    memo.checkpoints.clear();
    memo.has_checkpoints = false;
    return run_layered_forward(g, sweeps, regressor, cfg, &memo, stats);
  }

  count_partial_forward();

  DirtySeedOptions opts;
  opts.track_layout = true;
  bool any_reverse = false;
  for (const DirectedLayer* layer : sweeps) any_reverse |= layer->reversed();
  opts.track_reverse = any_reverse;
  std::vector<std::uint8_t> dirty = dirty_seeds(g, memo.snap, old_of_new, opts);

  // checkpoint 0 regenerated in the current layout; clean rows match the
  // memo bitwise by h0's per-(level, row) construction.
  std::vector<std::vector<nn::Matrix>> all_states;
  all_states.reserve(sweeps.size() + 1);
  all_states.push_back(h0_levels(g, cfg, cfg.random_h0));
  for (std::size_t s = 0; s < sweeps.size(); ++s)
    all_states.push_back(partial_sweep(*sweeps[s], g, all_states[s],
                                       memo.checkpoints[s + 1], memo.snap, old_of_new, dirty));

  const int dim = cfg.dim;
  nn::Matrix emb = stitch_levels(all_states.back(), g, dim);

  // Prediction: remap clean rows from the memo, recompute the dirty ones.
  nn::Matrix pred(g.num_nodes, 1);
  std::vector<int> dirty_nodes;
  for (int v = 0; v < g.num_nodes; ++v) {
    if (dirty[static_cast<std::size_t>(v)] != 0) {
      dirty_nodes.push_back(v);
      continue;
    }
    const int o = old_of_new[static_cast<std::size_t>(v)];
    pred.at(v, 0) = memo.prediction.at(o, 0);
  }
  regressor.forward_rows(emb, g, dirty_nodes, pred);

  if (stats != nullptr) {
    *stats = {};
    stats->partial = true;
    stats->dirty_nodes = static_cast<int>(dirty_nodes.size());
  }

  memo.checkpoints = std::move(all_states);
  memo.has_checkpoints = true;
  refresh_memo_outputs(memo, g, pred, emb);
  return {nn::constant(std::move(pred)), nn::constant(std::move(emb))};
}

}  // namespace dg::gnn
