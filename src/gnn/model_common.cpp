#include "gnn/model_common.hpp"

#include "nn/ops.hpp"
#include "obs/metrics.hpp"

#include <atomic>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>

namespace dg::gnn {

using nn::Tensor;

namespace {
std::atomic<std::uint64_t> g_full_forwards{0};
}  // namespace

ForwardCounters forward_counters() { return {g_full_forwards.load(std::memory_order_relaxed)}; }

void count_full_forward() {
  g_full_forwards.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& c = obs::counter("gnn.forwards.full");
  c.add();
}

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
  const auto require = [](const char* field, int graph_value, int model_value) {
    if (graph_value != model_value)
      throw std::invalid_argument(std::string("graph ") + field + " = " +
                                  std::to_string(graph_value) + " does not match the model's " +
                                  field + " = " + std::to_string(model_value));
  };
  require("num_types", g.num_types, cfg.num_types);
  require("pe_L", g.pe_L, cfg.pe_L);
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

Tensor full_onehot(const CircuitGraph& g) {
  nn::Matrix m(g.num_nodes, g.num_types);
  for (int v = 0; v < g.num_nodes; ++v)
    m.at(v, g.type_id[static_cast<std::size_t>(v)]) = 1.0F;
  return nn::constant(std::move(m));
}

namespace {

nn::Matrix padded_onehot_rows(const std::vector<int>& nodes, const CircuitGraph& g, int dim) {
  nn::Matrix m(static_cast<int>(nodes.size()), dim);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    m.at(static_cast<int>(i), g.type_id[static_cast<std::size_t>(nodes[i])]) = 1.0F;
  return m;
}

constexpr std::uint64_t kH0SeedMix = 0xd1f7a2b3c4e5f607ULL;

/// Seed of the h0 row at (level, row): a SplitMix64-style finalizer over the
/// model seed and the cell coordinates, so every row owns an independent
/// stream. Counter-based rather than one sequential stream per graph on
/// purpose: a member of a merged batch replays exactly the cells it draws
/// alone (batched_random_level_rows), so the h0 values never depend on what
/// else shares the forward. `level` -1 is the whole-graph
/// (init_full_state) stream. util::Rng applies its own SplitMix64 pass on
/// top of the returned value.
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

nn::Matrix random_level_rows(int level, int rows, int dim, std::uint64_t seed) {
  nn::Matrix m(rows, dim);
  for (int r = 0; r < rows; ++r) fill_h0_row(m.row_ptr(r), dim, h0_row_seed(seed, level, r));
  return m;
}

/// Per (member, level) contiguous row block within the merged level tensors.
/// nodes_at_level is sorted by node id and member id ranges are contiguous,
/// so member m's rows of level L are always one block.
struct MemberLevelRows {
  std::vector<int> start;  // [member * num_levels + level]
  std::vector<int> count;
};

MemberLevelRows member_level_rows(const CircuitGraph& g) {
  MemberLevelRows rows;
  const std::size_t cells = g.members.size() * static_cast<std::size_t>(g.num_levels);
  rows.start.assign(cells, 0);
  rows.count.assign(cells, 0);
  for (int L = 0; L < g.num_levels; ++L) {
    const std::vector<int> member_of_row = g.member_of_level_rows(L);
    for (std::size_t i = 0; i < member_of_row.size(); ++i) {
      const std::size_t cell =
          static_cast<std::size_t>(member_of_row[i]) * static_cast<std::size_t>(g.num_levels) +
          static_cast<std::size_t>(L);
      if (rows.count[cell] == 0) rows.start[cell] = static_cast<int>(i);
      ++rows.count[cell];
    }
  }
  return rows;
}

/// Random h0 for a batched graph: each member's rows replay the member's own
/// per-(level, row) cells — the exact values init_level_states draws for the
/// member alone — scattered into the merged level tensors, so merged
/// inference is bit-exact with every member running solo.
std::vector<nn::Matrix> batched_random_level_rows(const CircuitGraph& g, int dim,
                                                  std::uint64_t seed) {
  std::vector<nn::Matrix> mats;
  mats.reserve(static_cast<std::size_t>(g.num_levels));
  for (const auto& nodes : g.nodes_at_level)
    mats.emplace_back(static_cast<int>(nodes.size()), dim);  // zero-initialized
  const MemberLevelRows rows = member_level_rows(g);
  for (std::size_t m = 0; m < g.members.size(); ++m) {
    for (int L = 0; L < g.members[m].num_levels; ++L) {
      const std::size_t cell =
          m * static_cast<std::size_t>(g.num_levels) + static_cast<std::size_t>(L);
      for (int r = 0; r < rows.count[cell]; ++r)
        fill_h0_row(mats[static_cast<std::size_t>(L)].row_ptr(rows.start[cell] + r), dim,
                    h0_row_seed(seed, L, r));
    }
  }
  return mats;
}

}  // namespace

std::vector<Tensor> init_level_states(const CircuitGraph& g, int dim, bool random_init,
                                      std::uint64_t seed) {
  std::vector<Tensor> states;
  states.reserve(static_cast<std::size_t>(g.num_levels));
  if (random_init && g.is_batch()) {
    for (nn::Matrix& m : batched_random_level_rows(g, dim, seed))
      states.push_back(nn::constant(std::move(m)));
    return states;
  }
  for (int L = 0; L < g.num_levels; ++L) {
    const auto& nodes = g.nodes_at_level[static_cast<std::size_t>(L)];
    nn::Matrix m = random_init ? random_level_rows(L, static_cast<int>(nodes.size()), dim, seed)
                               : padded_onehot_rows(nodes, g, dim);
    states.push_back(nn::constant(std::move(m)));
  }
  return states;
}

Tensor init_full_state(const CircuitGraph& g, int dim, bool random_init, std::uint64_t seed) {
  if (random_init) {
    if (g.is_batch()) {
      // Member node ids are contiguous, so each member's h0 block lands on
      // rows [node_offset, node_offset + num_nodes) — replayed per member
      // from its own (level -1, member-local row) cells.
      nn::Matrix m(g.num_nodes, dim);
      for (const GraphMember& mem : g.members)
        for (int r = 0; r < mem.num_nodes; ++r)
          fill_h0_row(m.row_ptr(mem.node_offset + r), dim, h0_row_seed(seed, -1, r));
      return nn::constant(std::move(m));
    }
    return nn::constant(random_level_rows(-1, g.num_nodes, dim, seed));
  }
  nn::Matrix m(g.num_nodes, dim);
  for (int v = 0; v < g.num_nodes; ++v)
    m.at(v, g.type_id[static_cast<std::size_t>(v)]) = 1.0F;
  return nn::constant(std::move(m));
}

Tensor full_from_levels(const std::vector<Tensor>& states, const CircuitGraph& g) {
  const Tensor stacked = nn::concat_rows(states);  // rows in level order
  return nn::gather_rows(stacked, [&] {
    // permutation: node v sits at row offset(level) + node_pos[v]
    std::vector<int> row_of_node(static_cast<std::size_t>(g.num_nodes));
    std::vector<int> offset(static_cast<std::size_t>(g.num_levels), 0);
    int acc = 0;
    for (int l = 0; l < g.num_levels; ++l) {
      offset[static_cast<std::size_t>(l)] = acc;
      acc += static_cast<int>(g.nodes_at_level[static_cast<std::size_t>(l)].size());
    }
    for (int v = 0; v < g.num_nodes; ++v)
      row_of_node[static_cast<std::size_t>(v)] =
          offset[static_cast<std::size_t>(g.level[static_cast<std::size_t>(v)])] +
          g.node_pos[static_cast<std::size_t>(v)];
    return row_of_node;
  }());
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

void DirectedLayer::run(const CircuitGraph& g, std::vector<Tensor>& states,
                        const std::vector<Tensor>& queries,
                        const std::vector<Tensor>& x_lvl, Scratch* scratch) const {
  const bool memo = scratch != nullptr && !nn::grad_enabled();
  if (memo && scratch->pe_term.size() != static_cast<std::size_t>(g.num_levels)) {
    scratch->pe_term.assign(static_cast<std::size_t>(g.num_levels), Tensor());
    scratch->pe_valid.assign(static_cast<std::size_t>(g.num_levels), 0);
    scratch->inv_deg.assign(static_cast<std::size_t>(g.num_levels), Tensor());
  }
  const auto process_level = [&](int L) {
    const LevelBatch& batch = batch_at(g, L);
    if (batch.empty()) return;
    const std::size_t lvl = static_cast<std::size_t>(L);
    const int num_dst = static_cast<int>(g.nodes_at_level[lvl].size());
    const Tensor h_src = gather_batch_sources(states, batch);
    Tensor pe_term;
    if (memo && scratch->pe_valid[lvl] != 0) {
      pe_term = scratch->pe_term[lvl];
    } else if (batch.pe.rows() > 0) {
      pe_term = agg_->project_pe(nn::constant(batch.pe));
      if (memo) {
        scratch->pe_term[lvl] = pe_term;
        scratch->pe_valid[lvl] = 1;
      }
    } else if (memo) {
      scratch->pe_valid[lvl] = 1;  // no skip edges at this level: stays undefined
    }
    Tensor inv_deg;
    if (memo && scratch->inv_deg[lvl].defined()) {
      inv_deg = scratch->inv_deg[lvl];
    } else {
      inv_deg = nn::constant(
          nn::Matrix::from_vector(num_dst, 1, std::vector<float>(batch.inv_deg)));
      if (memo) scratch->inv_deg[lvl] = inv_deg;
    }
    const Tensor m = agg_->forward(h_src, queries[static_cast<std::size_t>(L)], batch.seg,
                                   num_dst, inv_deg, pe_term);
    const Tensor input = refeed_ ? nn::concat_cols(m, x_lvl[static_cast<std::size_t>(L)]) : m;
    const Tensor updated = gru_.forward(input, states[static_cast<std::size_t>(L)]);
    if (!batch.masked()) {
      states[static_cast<std::size_t>(L)] = updated;
      return;
    }
    // Batched graph with members that skip this level when alone: keep their
    // rows' previous states via an exact row select (bitwise, no blending).
    std::vector<int> pick(static_cast<std::size_t>(num_dst));
    for (int r = 0; r < num_dst; ++r)
      pick[static_cast<std::size_t>(r)] =
          batch.update_rows[static_cast<std::size_t>(r)] != 0 ? r : num_dst + r;
    states[static_cast<std::size_t>(L)] = nn::gather_rows(
        nn::concat_rows({updated, states[static_cast<std::size_t>(L)]}), std::move(pick));
  };

  if (!reversed_) {
    for (int L = 1; L < g.num_levels; ++L) process_level(L);
  } else {
    for (int L = g.num_levels - 2; L >= 0; --L) process_level(L);
  }
}

void DirectedLayer::collect(nn::NamedParams& out, const std::string& prefix) const {
  agg_->collect(out, prefix + ".agg");
  gru_.collect(out, prefix + ".gru");
}

ForwardOutputs run_layered_forward(const CircuitGraph& g,
                                   const std::vector<const DirectedLayer*>& sweeps,
                                   const Regressor& regressor, const ModelConfig& cfg) {
  count_full_forward();
  std::vector<Tensor> states = init_level_states(g, cfg.dim, cfg.random_h0, cfg.seed);
  const std::vector<Tensor> x_lvl = level_onehot(g);
  std::map<const DirectedLayer*, DirectedLayer::Scratch> scratch;
  for (const DirectedLayer* layer : sweeps) {
    const std::vector<Tensor> queries = states;
    layer->run(g, states, queries, x_lvl, &scratch[layer]);
  }
  const Tensor h = full_from_levels(states, g);
  return {regressor.forward(h, g), h};
}

}  // namespace dg::gnn
