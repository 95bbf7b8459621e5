#include "gnn/model_common.hpp"

#include "nn/ops.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace dg::gnn {

using nn::Tensor;

namespace {
std::atomic<std::uint64_t> g_full_forwards{0};
}  // namespace

ForwardCounters forward_counters() { return {g_full_forwards.load(std::memory_order_relaxed)}; }

void count_full_forward() { g_full_forwards.fetch_add(1, std::memory_order_relaxed); }

void copy_params(const nn::NamedParams& from, nn::NamedParams& to) {
  if (from.size() != to.size())
    throw std::invalid_argument("copy_params: model architectures differ");
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i].first != to[i].first)
      throw std::invalid_argument("copy_params: parameter mismatch at " + from[i].first);
    to[i].second.mutable_value() = from[i].second.value();
  }
}

void check_compatible(const ModelConfig& cfg, const CircuitGraph& g) {
  if (g.num_types != cfg.num_types)
    throw std::invalid_argument("graph num_types = " + std::to_string(g.num_types) +
                                " does not match the model's num_types = " +
                                std::to_string(cfg.num_types));
}

void require_one_hot_fits(const ModelConfig& cfg) {
  if (cfg.dim < cfg.num_types)
    throw std::invalid_argument("model dim = " + std::to_string(cfg.dim) +
                                " is smaller than num_types = " + std::to_string(cfg.num_types) +
                                ": the one-hot initial state needs dim >= num_types");
}

void copy_params(const Model& src, Model& dst) {
  const nn::NamedParams from = src.named_params();
  nn::NamedParams to = dst.named_params();
  copy_params(from, to);
}

Regressor::Regressor(int num_types, int dim, int hidden, util::Rng& rng) {
  heads_.reserve(static_cast<std::size_t>(num_types));
  for (int t = 0; t < num_types; ++t)
    heads_.emplace_back(std::vector<int>{dim, hidden, 1}, nn::OutputActivation::kSigmoid, rng);
}

Tensor Regressor::forward(const Tensor& h_full, const CircuitGraph& g) const {
  assert(static_cast<int>(heads_.size()) == g.num_types);
  Tensor out;
  for (int t = 0; t < g.num_types; ++t) {
    const auto& idx = g.nodes_of_type[static_cast<std::size_t>(t)];
    if (idx.empty()) continue;
    const Tensor rows = nn::gather_rows(h_full, idx);
    const Tensor y = heads_[static_cast<std::size_t>(t)].forward(rows);
    const Tensor scattered = nn::scatter_add_rows(y, idx, g.num_nodes);
    out = out.defined() ? nn::add(out, scattered) : scattered;
  }
  return out;
}

void Regressor::collect(nn::NamedParams& out, const std::string& prefix) const {
  for (std::size_t t = 0; t < heads_.size(); ++t)
    heads_[t].collect(out, prefix + ".head" + std::to_string(t));
}

std::vector<Tensor> level_onehot(const CircuitGraph& g) {
  std::vector<Tensor> x;
  x.reserve(static_cast<std::size_t>(g.num_levels));
  for (const auto& nodes : g.nodes_at_level) {
    nn::Matrix m(static_cast<int>(nodes.size()), g.num_types);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      m.at(static_cast<int>(i), g.type_id[static_cast<std::size_t>(nodes[i])]) = 1.0F;
    x.push_back(nn::constant(std::move(m)));
  }
  return x;
}

namespace {

constexpr std::uint64_t kH0SeedMix = 0xd1f7a2b3c4e5f607ULL;

/// Seed of the h0 row at (level, row): a SplitMix64-style finalizer over the
/// model seed and the cell coordinates, so every row owns an independent
/// stream. Counter-based rather than one sequential stream per graph on
/// purpose: a member of a merged batch replays exactly the cells it draws
/// alone (write_h0), so the h0 values never depend on what else shares the
/// forward. util::Rng applies its own SplitMix64 pass on top of the
/// returned value.
std::uint64_t h0_row_seed(std::uint64_t seed, int level, int row) {
  std::uint64_t z = seed ^ kH0SeedMix;
  z += 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(level) + 2);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z += 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(row) + 1);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// Fill one h0 row exactly as nn::normal would fill a 1 x dim matrix from a
/// fresh Rng(h0_row_seed(...)): stddev * next_normal() per element. The
/// per-row Rng also means Box-Muller's spare draw never leaks across rows.
void fill_h0_row(float* dst, int dim, std::uint64_t row_seed) {
  util::Rng rng(row_seed);
  const float stddev = 1.0F / std::sqrt(static_cast<float>(dim));
  for (int c = 0; c < dim; ++c) dst[c] = stddev * rng.next_normal();
}

/// Row of each level's first node in a level-ordered N-row table.
std::vector<int> level_offsets(const CircuitGraph& g) {
  std::vector<int> start;
  start.reserve(g.nodes_at_level.size());
  int acc = 0;
  for (const std::vector<int>& nodes : g.nodes_at_level) {
    start.push_back(acc);
    acc += static_cast<int>(nodes.size());
  }
  return start;
}

/// Initial states of every node into the level-ordered N x dim table at
/// `rows` (level L's rows start at row level_start[L]): seeded-random rows
/// or the one-hot features zero-padded to width dim. In a batched graph
/// each member's rows replay the member's own per-(level, row) cells — the
/// exact values the member draws alone — so merged inference is bit-exact
/// with every member running solo. Member m's rows of level L are one
/// block, because nodes_at_level is sorted by node id and member id ranges
/// are contiguous.
void write_h0(const CircuitGraph& g, int dim, bool random_init, std::uint64_t seed,
              const std::vector<int>& level_start, float* rows) {
  const std::size_t d = static_cast<std::size_t>(dim);
  std::fill_n(rows, static_cast<std::size_t>(g.num_nodes) * d, 0.0F);
  const auto row = [&](int L, int r) {
    return rows + static_cast<std::size_t>(level_start[static_cast<std::size_t>(L)] + r) * d;
  };
  for (int L = 0; L < g.num_levels; ++L) {
    const std::vector<int>& nodes = g.nodes_at_level[static_cast<std::size_t>(L)];
    if (!random_init) {
      for (std::size_t i = 0; i < nodes.size(); ++i)
        row(L, static_cast<int>(i))[g.type_id[static_cast<std::size_t>(nodes[i])]] = 1.0F;
    } else if (!g.is_batch()) {
      for (int r = 0; r < static_cast<int>(nodes.size()); ++r)
        fill_h0_row(row(L, r), dim, h0_row_seed(seed, L, r));
    } else {
      const std::vector<int> member_of_row = g.member_of_level_rows(L);
      int member_row = 0;
      for (std::size_t i = 0; i < member_of_row.size(); ++i) {
        member_row = i > 0 && member_of_row[i] == member_of_row[i - 1] ? member_row + 1 : 0;
        fill_h0_row(row(L, static_cast<int>(i)), dim, h0_row_seed(seed, L, member_row));
      }
    }
  }
}

}  // namespace

std::vector<Tensor> init_level_states(const CircuitGraph& g, int dim, bool random_init,
                                      std::uint64_t seed) {
  const std::vector<int> level_start = level_offsets(g);
  nn::Matrix table(g.num_nodes, dim);
  write_h0(g, dim, random_init, seed, level_start, table.data());
  std::vector<Tensor> states;
  states.reserve(static_cast<std::size_t>(g.num_levels));
  for (int L = 0; L < g.num_levels; ++L) {
    nn::Matrix m(static_cast<int>(g.nodes_at_level[static_cast<std::size_t>(L)].size()), dim);
    if (m.size() != 0)
      std::memcpy(m.data(), table.row_ptr(level_start[static_cast<std::size_t>(L)]),
                  m.size() * sizeof(float));
    states.push_back(nn::constant(std::move(m)));
  }
  return states;
}

Tensor init_full_state(const CircuitGraph& g, int dim) {
  nn::Matrix m(g.num_nodes, dim);
  for (int v = 0; v < g.num_nodes; ++v)
    m.at(v, g.type_id[static_cast<std::size_t>(v)]) = 1.0F;
  return nn::constant(std::move(m));
}

Tensor full_from_levels(const std::vector<Tensor>& states, const CircuitGraph& g) {
  // Node v sits at row level_start[level[v]] + node_pos[v] of the stack.
  const std::vector<int> level_start = level_offsets(g);
  std::vector<int> row_of_node(static_cast<std::size_t>(g.num_nodes));
  for (std::size_t v = 0; v < row_of_node.size(); ++v)
    row_of_node[v] = level_start[static_cast<std::size_t>(g.level[v])] + g.node_pos[v];
  return nn::gather_rows(nn::concat_rows(states), row_of_node);
}

Tensor gather_batch_sources(const std::vector<Tensor>& states, const LevelBatch& batch) {
  std::vector<Tensor> parts;
  parts.reserve(batch.groups.size());
  for (const auto& group : batch.groups)
    parts.push_back(nn::gather_rows(states[static_cast<std::size_t>(group.level)], group.pos));
  return parts.size() == 1 ? parts[0] : nn::concat_rows(parts);
}

DirectedLayer::DirectedLayer(const ModelConfig& cfg, bool reversed, util::Rng& rng)
    : reversed_(reversed),
      use_skip_(cfg.use_skip && !reversed),
      refeed_(cfg.refeed_input),
      agg_(make_aggregator(cfg.agg, cfg.dim, 2 * cfg.pe_L, rng)),
      gru_(refeed_ ? cfg.dim + cfg.num_types : cfg.dim, cfg.dim, rng) {}

void DirectedLayer::sweep_levels(const CircuitGraph& g, std::vector<int>& out) const {
  out.clear();
  const auto keep = [&](int L) {
    if (!batch_at(g, L).empty()) out.push_back(L);
  };
  if (!reversed_) {
    for (int L = 1; L < g.num_levels; ++L) keep(L);
  } else {
    for (int L = g.num_levels - 2; L >= 0; --L) keep(L);
  }
}

Tensor DirectedLayer::aggregate(const CircuitGraph& g, int L, const std::vector<Tensor>& states,
                                const std::vector<Tensor>& queries) const {
  const LevelBatch& batch = batch_at(g, L);
  const std::size_t lvl = static_cast<std::size_t>(L);
  return agg_->forward(gather_batch_sources(states, batch), queries[lvl], batch.seg,
                       static_cast<int>(g.nodes_at_level[lvl].size()), skips_of(batch));
}

namespace {

/// Store level L's GRU output on the taped path. In a batched graph some
/// members skip this level when alone; their rows keep the previous states
/// through an exact row select (bitwise, no blending).
void commit_level(std::vector<Tensor>& states, int L, const LevelBatch& batch,
                  const Tensor& updated) {
  Tensor& state = states[static_cast<std::size_t>(L)];
  if (!batch.masked()) {
    state = updated;
    return;
  }
  const int num_dst = state.rows();
  std::vector<int> pick(static_cast<std::size_t>(num_dst));
  for (int r = 0; r < num_dst; ++r)
    pick[static_cast<std::size_t>(r)] =
        batch.update_rows[static_cast<std::size_t>(r)] != 0 ? r : num_dst + r;
  state = nn::gather_rows(nn::concat_rows({updated, state}), std::move(pick));
}

/// Helper slots in the product ring: how many levels the helper may run
/// ahead of the levels the driver has finished.
constexpr int kProductSlots = 3;

/// One step of the helper's wait for a free slot. The waits last about one
/// level step, so the thread stays on its core with a pause hint and
/// yields only every 64th step, in case the driver lost its core.
void spin_pause(unsigned& spins) {
  if (++spins % 64 == 0) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

void DirectedLayer::run_taped(const CircuitGraph& g, std::vector<Tensor>& states,
                              const std::vector<Tensor>& queries,
                              const std::vector<Tensor>& x_lvl) const {
  std::vector<int> levels;
  sweep_levels(g, levels);
  for (const int L : levels) {
    const std::size_t lvl = static_cast<std::size_t>(L);
    const Tensor m = aggregate(g, L, states, queries);
    const Tensor input = refeed_ ? nn::concat_cols(m, x_lvl[lvl]) : m;
    commit_level(states, L, batch_at(g, L), gru_.forward(input, states[lvl]));
  }
}

struct DirectedLayer::SweepBuffers {
  SweepBuffers(const CircuitGraph& g, const ModelConfig& cfg)
      : level_start(level_offsets(g)),
        dim(cfg.dim),
        helper_slots(util::global_pool().runs_inline() ? 0 : kProductSlots) {
    types.reserve(static_cast<std::size_t>(g.num_nodes));
    std::size_t widest = 0;
    for (const std::vector<int>& nodes : g.nodes_at_level) {
      for (const int v : nodes) types.push_back(g.type_id[static_cast<std::size_t>(v)]);
      widest = std::max(widest, nodes.size());
    }
    table_floats = static_cast<std::size_t>(g.num_nodes) * static_cast<std::size_t>(dim);
    slot_floats = 3 * widest * static_cast<std::size_t>(dim);
    // One buffer: the state slab, the sweep-start slab when a helper may
    // read it, the driver's work area and the product ring. Not
    // zero-filled: write_h0 writes the whole slab, each sweep copies it
    // whole into the sweep-start slab, and the GRU writes every product and
    // work float it reads.
    const std::size_t starts = helper_slots > 0 ? table_floats : 0;
    storage = nn::detail::arena_acquire_floats(
        table_floats + starts + (2 + static_cast<std::size_t>(helper_slots)) * slot_floats);
    state = storage;
    start = state + starts;
    work = start + table_floats;
    slots = work + slot_floats;
    write_h0(g, dim, cfg.random_h0, cfg.seed, level_start, state);
    levels.reserve(g.nodes_at_level.size());
  }
  ~SweepBuffers() { nn::detail::arena_release(storage); }
  SweepBuffers(const SweepBuffers&) = delete;
  SweepBuffers& operator=(const SweepBuffers&) = delete;

  /// Level L's first row in the state slab; its rows follow densely.
  float* rows(int L) const {
    return state + static_cast<std::size_t>(level_start[static_cast<std::size_t>(L)]) *
                       static_cast<std::size_t>(dim);
  }
  /// Level L's first row in the slab the sweep's hidden-side products read.
  const float* start_rows(int L) const { return start + (rows(L) - state); }

  /// Called before each sweep. A helper computes a level's products while
  /// the driver may already be writing that level's rows, so with a helper
  /// the products read a copy of the slab taken here, which the driver
  /// never writes. Inline, they read the slab itself: a level's rows hold
  /// its sweep-start states until the sweep's step for it writes them.
  void begin_sweep() const {
    if (helper_slots > 0) std::memcpy(start, state, table_floats * sizeof(float));
  }

  /// Where the driver computes the products it does not take from the
  /// helper. Only the driver touches it.
  float* driver_slot() const { return slots; }
  /// Where the helper writes the products of the i-th level of a sweep. It
  /// claims only levels fewer than helper_slots ahead of the driver's, so
  /// it never writes a slot the driver is reading.
  float* helper_slot(int i) const {
    return slots + static_cast<std::size_t>(1 + i % helper_slots) * slot_floats;
  }

  std::vector<int> types;              ///< gate type of each slab row
  const std::vector<int> level_start;  ///< slab row of each level's first node
  std::vector<int> levels;             ///< the current sweep's levels, in sweep order
  const int dim;
  const int helper_slots;  ///< kProductSlots, or 0 when sweeps run inline
  float* storage = nullptr;
  float* state = nullptr;  ///< N x dim level states, level by level
  float* start = nullptr;  ///< their sweep-start copy (== state when inline)
  float* work = nullptr;   ///< the driver's GRU work area: 3 x widest level x dim
  float* slots = nullptr;  ///< (1 + helper_slots) x 3 x widest level x dim
  std::size_t table_floats = 0;
  std::size_t slot_floats = 0;
};

namespace {

/// One no-grad sweep over n levels, shared between its driver (the calling
/// thread, which runs every level step in order) and at most one helper
/// (another pool lane, which computes hidden-side products ahead). Indices
/// count levels in sweep order. The helper claims an index by moving
/// `next_` past it; the driver never waits for it, and computes the
/// products itself when the helper has not published them yet, so a helper
/// that lost its core delays nothing but its own wasted work.
/// `products(i, out)` writes index i's products to `out`; `step(i,
/// products)` runs level step i from them.
template <class Products, class Step>
class SharedSweep {
 public:
  SharedSweep(int n, const DirectedLayer::SweepBuffers& buffers, const Products& products,
              const Step& step)
      : n_(n), buffers_(buffers), products_(products), step_(step) {
    for (std::atomic<int>& s : ready_) s.store(-1, std::memory_order_relaxed);
  }

  /// The sweep as one two-chunk fan-out on the global pool. Roles go by
  /// thread, not chunk index: the calling thread drives on its first chunk
  /// and returns on a second; a chunk on another thread helps unless a
  /// helper already runs. With no second lane (one-lane pool, nested in a
  /// pool chunk, InlineParallelGuard) the caller runs both chunks: it drives
  /// and claims every level itself. If both chunks land on other threads,
  /// the helper stops at a full ring and the caller drives once run_chunks
  /// returns.
  void run() {
    const std::thread::id caller = std::this_thread::get_id();
    util::global_pool().run_chunks(2, [this, caller](int /*chunk*/) {
      if (std::this_thread::get_id() == caller) {
        if (!driven_) drive();
      } else if (foreign_.fetch_add(1, std::memory_order_acq_rel) == 0) {
        help();
      }
    });
    if (!driven_) drive();
  }

 private:
  /// Level by level: take the helper's products if they are published,
  /// else compute them; then run the step and free the helper's slot.
  void drive() {
    driven_ = true;
    // Set on every exit, an exception included: a helper waiting on a full
    // ring would otherwise spin forever and run_chunks never return.
    struct Stop {
      std::atomic<bool>& flag;
      ~Stop() { flag.store(true, std::memory_order_release); }
    } stop_on_exit{stop_};
    for (int i = 0; i < n_; ++i) {
      int expected = i;
      const bool helper_claimed =
          !next_.compare_exchange_strong(expected, i + 1, std::memory_order_acq_rel);
      if (helper_claimed &&
          ready_[i % kProductSlots].load(std::memory_order_acquire) == i) {
        step_(i, buffers_.helper_slot(i));
      } else {
        products_(i, buffers_.driver_slot());
        step_(i, buffers_.driver_slot());
      }
      done_.store(i + 1, std::memory_order_release);
    }
  }

  /// Claim levels in order, fewer than helper_slots ahead of the levels the
  /// driver has finished, until none is left or the driver has stopped or
  /// cannot run inside the fan-out. Time spent spinning on a full ring is
  /// reported to the pool as a wait, so the lane's busy time counts only
  /// the products it computes.
  void help() {
    using Clock = std::chrono::steady_clock;
    const int ahead = buffers_.helper_slots;
    unsigned spins = 0;
    bool waiting = false;
    Clock::time_point wait_start{};
    const auto end_wait = [&] {
      if (!waiting) return;
      waiting = false;
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - wait_start);
      util::report_chunk_wait(static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns.count())));
    };
    for (;;) {
      int i = next_.load(std::memory_order_acquire);
      if (i >= n_ || ahead == 0 || stop_.load(std::memory_order_acquire)) return end_wait();
      if (i >= done_.load(std::memory_order_acquire) + ahead) {
        if (foreign_.load(std::memory_order_acquire) > 1) return end_wait();
        if (!waiting) {
          waiting = true;
          wait_start = Clock::now();
        }
        spin_pause(spins);
        continue;
      }
      end_wait();
      if (!next_.compare_exchange_weak(i, i + 1, std::memory_order_acq_rel)) continue;
      products_(i, buffers_.helper_slot(i));
      ready_[i % kProductSlots].store(i, std::memory_order_release);
    }
  }

  const int n_;
  const DirectedLayer::SweepBuffers& buffers_;
  const Products& products_;
  const Step& step_;
  bool driven_ = false;            ///< calling thread only
  std::atomic<int> next_{0};       ///< first unclaimed index
  std::atomic<int> done_{0};       ///< indices the driver has finished
  std::atomic<int> foreign_{0};    ///< chunks entered by other threads
  std::atomic<bool> stop_{false};  ///< the driver has returned or thrown
  std::atomic<int> ready_[kProductSlots];  ///< index whose helper products fill each slot
};

}  // namespace

nn::Matrix DirectedLayer::aggregate_no_grad(const CircuitGraph& g, int L,
                                            const SweepBuffers& buffers) const {
  const LevelBatch& batch = batch_at(g, L);
  const std::size_t lvl = static_cast<std::size_t>(L);
  const std::size_t row_bytes = static_cast<std::size_t>(buffers.dim) * sizeof(float);
  nn::Matrix h_src(batch.num_edges, buffers.dim);
  int e = 0;
  for (const LevelBatch::SrcGroup& group : batch.groups) {
    const float* base = buffers.rows(group.level);
    for (const int pos : group.pos)
      std::memcpy(h_src.row_ptr(e++), base + static_cast<std::size_t>(pos) * buffers.dim,
                  row_bytes);
  }
  assert(e == batch.num_edges);
  return agg_->forward_no_grad(std::move(h_src), buffers.rows(L), batch.seg,
                               static_cast<int>(g.nodes_at_level[lvl].size()),
                               skips_of(batch));
}

void DirectedLayer::run_no_grad(const CircuitGraph& g, SweepBuffers& buffers) const {
  const std::vector<int>& levels = buffers.levels;
  sweep_levels(g, buffers.levels);
  if (levels.empty()) return;
  buffers.begin_sweep();
  const auto level = [&](int i) { return levels[static_cast<std::size_t>(i)]; };
  const auto level_rows = [&](int L) {
    return static_cast<int>(g.nodes_at_level[static_cast<std::size_t>(L)].size());
  };
  const auto products = [&](int i, float* out) {
    const int L = level(i);
    gru_.hidden_products(buffers.start_rows(L), level_rows(L), out);
  };
  // The step reads level L's sweep-start rows (attention query, GRU h) and
  // then writes the updated rows over them, all in the slab.
  const auto step = [&](int i, const float* products) {
    const int L = level(i);
    const nn::Matrix m = aggregate_no_grad(g, L, buffers);
    const int* onehot =
        refeed_ ? buffers.types.data() + buffers.level_start[static_cast<std::size_t>(L)] : nullptr;
    const LevelBatch& batch = batch_at(g, L);
    float* h = buffers.rows(L);
    gru_.step_no_grad(m, onehot, h, products, buffers.work,
                      batch.masked() ? batch.update_rows.data() : nullptr, h);
  };
  SharedSweep(static_cast<int>(levels.size()), buffers, products, step).run();
}

void DirectedLayer::collect(nn::NamedParams& out, const std::string& prefix) const {
  agg_->collect(out, prefix + ".agg");
  gru_.collect(out, prefix + ".gru");
}

ForwardOutputs run_layered_forward(const CircuitGraph& g,
                                   const std::vector<const DirectedLayer*>& sweeps,
                                   const Regressor& regressor, const ModelConfig& cfg) {
  count_full_forward();
  Tensor h;
  if (nn::grad_enabled()) {
    std::vector<Tensor> states = init_level_states(g, cfg.dim, cfg.random_h0, cfg.seed);
    const std::vector<Tensor> x_lvl = level_onehot(g);
    for (const DirectedLayer* layer : sweeps) {
      const std::vector<Tensor> queries = states;
      layer->run_taped(g, states, queries, x_lvl);
    }
    h = full_from_levels(states, g);
  } else {
    DirectedLayer::SweepBuffers buffers(g, cfg);
    for (const DirectedLayer* layer : sweeps) layer->run_no_grad(g, buffers);
    // The embedding in node order: one row gather from the slab.
    nn::Matrix full(g.num_nodes, cfg.dim);
    for (int v = 0; v < g.num_nodes; ++v)
      std::memcpy(full.row_ptr(v),
                  buffers.rows(g.level[static_cast<std::size_t>(v)]) +
                      static_cast<std::size_t>(g.node_pos[static_cast<std::size_t>(v)]) *
                          static_cast<std::size_t>(cfg.dim),
                  static_cast<std::size_t>(cfg.dim) * sizeof(float));
    h = nn::constant(std::move(full));
  }
  return {regressor.forward(h, g), h};
}

}  // namespace dg::gnn
