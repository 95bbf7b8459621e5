#include "gnn/circuit_graph.hpp"

#include "util/bytes.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace dg::gnn {
namespace {

/// Assemble a LevelBatch from (src, dst, level_diff) triples whose dst nodes
/// all live on one level. `level_diff < 0` marks a normal edge; the others
/// are skip edges, listed in `skips` by their position in the sorted batch.
LevelBatch build_batch(const std::vector<std::array<int, 3>>& batch_edges,
                       const std::vector<int>& node_level, const std::vector<int>& node_pos) {
  LevelBatch batch;
  batch.num_edges = static_cast<int>(batch_edges.size());
  if (batch.num_edges == 0) return batch;

  // Sort edges by source level so gathers from per-level state tensors are
  // contiguous ranges.
  std::vector<int> order(batch_edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[static_cast<std::size_t>(i)] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return node_level[static_cast<std::size_t>(batch_edges[static_cast<std::size_t>(a)][0])] <
           node_level[static_cast<std::size_t>(batch_edges[static_cast<std::size_t>(b)][0])];
  });

  batch.seg.reserve(batch_edges.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& e = batch_edges[static_cast<std::size_t>(order[k])];
    const int src = e[0], dst = e[1], diff = e[2];
    const int src_level = node_level[static_cast<std::size_t>(src)];
    if (batch.groups.empty() || batch.groups.back().level != src_level)
      batch.groups.push_back({src_level, {}});
    batch.groups.back().pos.push_back(node_pos[static_cast<std::size_t>(src)]);
    batch.seg.push_back(node_pos[static_cast<std::size_t>(dst)]);
    if (diff >= 0) batch.skips.push_back({static_cast<int>(k), diff});
  }
  return batch;
}

}  // namespace

void CircuitGraph::finalize(int /*ignored*/) {
  assert(num_nodes == static_cast<int>(type_id.size()));
  assert(num_nodes == static_cast<int>(level.size()));

  num_levels = 0;
  for (int l : level) num_levels = std::max(num_levels, l + 1);

  nodes_at_level.assign(static_cast<std::size_t>(num_levels), {});
  for (int v = 0; v < num_nodes; ++v)
    nodes_at_level[static_cast<std::size_t>(level[static_cast<std::size_t>(v)])].push_back(v);

  node_pos.assign(static_cast<std::size_t>(num_nodes), 0);
  for (const auto& nodes : nodes_at_level)
    for (std::size_t i = 0; i < nodes.size(); ++i)
      node_pos[static_cast<std::size_t>(nodes[i])] = static_cast<int>(i);

  // Bucket edges by destination level (forward) and source level (reverse).
  std::vector<std::vector<std::array<int, 3>>> fwd_edges(static_cast<std::size_t>(num_levels));
  std::vector<std::vector<std::array<int, 3>>> fwd_skip_edges(static_cast<std::size_t>(num_levels));
  std::vector<std::vector<std::array<int, 3>>> rev_edges(static_cast<std::size_t>(num_levels));
  for (const auto& [src, dst] : edges) {
    const int dl = level[static_cast<std::size_t>(dst)];
    const int sl = level[static_cast<std::size_t>(src)];
    fwd_edges[static_cast<std::size_t>(dl)].push_back({src, dst, -1});
    fwd_skip_edges[static_cast<std::size_t>(dl)].push_back({src, dst, -1});
    rev_edges[static_cast<std::size_t>(sl)].push_back({dst, src, -1});  // reversed direction
  }
  for (const auto& e : skip_edges) {
    const int dl = level[static_cast<std::size_t>(e.dst)];
    fwd_skip_edges[static_cast<std::size_t>(dl)].push_back({e.src, e.dst, e.level_diff});
  }

  fwd.assign(static_cast<std::size_t>(num_levels), {});
  fwd_skip.assign(static_cast<std::size_t>(num_levels), {});
  rev.assign(static_cast<std::size_t>(num_levels), {});
  for (std::size_t L = 0; L < static_cast<std::size_t>(num_levels); ++L) {
    fwd[L] = build_batch(fwd_edges[L], level, node_pos);
    fwd_skip[L] = build_batch(fwd_skip_edges[L], level, node_pos);
    rev[L] = build_batch(rev_edges[L], level, node_pos);
  }

  // Per-row update masks for batched graphs: a member whose own batch at a
  // level is empty must keep its rows' states untouched there, exactly as it
  // would running alone.
  if (!members.empty()) {
    for (int L = 0; L < num_levels; ++L) {
      const auto& nodes = nodes_at_level[static_cast<std::size_t>(L)];
      const std::vector<int> member_of_row = member_of_level_rows(L);
      const auto apply_mask = [&](LevelBatch& batch) {
        if (batch.empty()) return;  // level skipped for every member alike
        std::vector<std::uint8_t> member_has(members.size(), 0);
        for (const int seg : batch.seg)
          member_has[static_cast<std::size_t>(member_of_row[static_cast<std::size_t>(seg)])] = 1;
        bool any_zero = false;
        std::vector<std::uint8_t> mask(nodes.size(), 1);
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          mask[i] = member_has[static_cast<std::size_t>(member_of_row[i])];
          any_zero |= mask[i] == 0;
        }
        if (any_zero) batch.update_rows = std::move(mask);
      };
      apply_mask(fwd[static_cast<std::size_t>(L)]);
      apply_mask(fwd_skip[static_cast<std::size_t>(L)]);
      apply_mask(rev[static_cast<std::size_t>(L)]);
    }
  }

  nodes_of_type.assign(static_cast<std::size_t>(num_types), {});
  for (int v = 0; v < num_nodes; ++v)
    nodes_of_type[static_cast<std::size_t>(type_id[static_cast<std::size_t>(v)])].push_back(v);

  ++generation;
}

namespace {

void require_delta_ready(const CircuitGraph& g, const char* op) {
  if (g.is_batch())
    throw std::invalid_argument(std::string(op) + ": merged batch graphs cannot be edited");
  if (static_cast<int>(g.node_pos.size()) != g.num_nodes)
    throw std::invalid_argument(std::string(op) + ": graph must be finalized first");
  for (std::size_t i = 1; i < g.edges.size(); ++i)
    if (g.edges[i].second < g.edges[i - 1].second)
      throw std::invalid_argument(std::string(op) +
                                  ": edges must be grouped by destination (canonical order)");
}

void check_node_range(const CircuitGraph& g, int v, const char* op) {
  if (v < 0 || v >= g.num_nodes)
    throw std::invalid_argument(std::string(op) + ": node id out of range");
}

}  // namespace

std::vector<std::vector<int>> CircuitGraph::fanin_lists() const {
  std::vector<std::vector<int>> fanins(static_cast<std::size_t>(num_nodes));
  for (const auto& [src, dst] : edges) fanins[static_cast<std::size_t>(dst)].push_back(src);
  return fanins;
}

std::vector<int> CircuitGraph::fanout_counts() const {
  std::vector<int> count(static_cast<std::size_t>(num_nodes), 0);
  for (const auto& [src, dst] : edges) ++count[static_cast<std::size_t>(src)];
  return count;
}

int CircuitGraph::delta_insert_node(int type, const std::vector<int>& fanins, float label) {
  require_delta_ready(*this, "delta_insert_node");
  if (type < 0 || type >= num_types)
    throw std::invalid_argument("delta_insert_node: type out of range");
  for (int f : fanins) check_node_range(*this, f, "delta_insert_node");

  const int v = num_nodes;
  int lv = 0;
  for (int f : fanins) lv = std::max(lv, level[static_cast<std::size_t>(f)] + 1);

  ++num_nodes;
  type_id.push_back(type);
  level.push_back(lv);
  labels.push_back(label);
  // Appending the new destination's fanin group at the tail keeps the edge
  // list canonical (grouped by ascending dst).
  for (int f : fanins) edges.emplace_back(f, v);

  finalize();
  return v;
}

void CircuitGraph::delta_delete_node(int v) {
  require_delta_ready(*this, "delta_delete_node");
  check_node_range(*this, v, "delta_delete_node");
  for (const auto& [src, dst] : edges)
    if (src == v)
      throw std::invalid_argument("delta_delete_node: node still has fanouts");

  const auto remap = [v](int id) { return id > v ? id - 1 : id; };

  type_id.erase(type_id.begin() + v);
  level.erase(level.begin() + v);
  labels.erase(labels.begin() + v);
  std::vector<std::pair<int, int>> kept_edges;
  kept_edges.reserve(edges.size());
  for (const auto& [src, dst] : edges)
    if (dst != v) kept_edges.emplace_back(remap(src), remap(dst));
  edges = std::move(kept_edges);  // order-preserving remap stays canonical
  std::vector<analysis::SkipEdge> kept_skip;
  kept_skip.reserve(skip_edges.size());
  for (const auto& e : skip_edges)
    if (e.src != v && e.dst != v) kept_skip.push_back({remap(e.src), remap(e.dst), e.level_diff});
  skip_edges = std::move(kept_skip);
  --num_nodes;

  // A fanout-free node feeds no one, so no other node's level can change.
  finalize();
}

void CircuitGraph::delta_rewire_node(int v, const std::vector<int>& new_fanins) {
  require_delta_ready(*this, "delta_rewire_node");
  check_node_range(*this, v, "delta_rewire_node");
  for (int f : new_fanins) check_node_range(*this, f, "delta_rewire_node");
  const auto idx = [](int v2) { return static_cast<std::size_t>(v2); };

  std::vector<std::vector<int>> fanins = fanin_lists();
  std::vector<std::vector<int>> fanouts(idx(num_nodes));
  for (const auto& [src, dst] : edges) fanouts[idx(src)].push_back(dst);

  // Nodes reachable from v through fanouts (v included) — both the cycle
  // guard and the exact set whose levels the edit can change. v's own fanout
  // lists are untouched by rewiring its fanins, so the pre-edit cone equals
  // the post-edit one.
  std::vector<std::uint8_t> in_cone(idx(num_nodes), 0);
  std::vector<int> stack = {v};
  in_cone[idx(v)] = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (int d : fanouts[idx(u)])
      if (in_cone[idx(d)] == 0) {
        in_cone[idx(d)] = 1;
        stack.push_back(d);
      }
  }
  for (int f : new_fanins)
    if (in_cone[idx(f)] != 0)
      throw std::invalid_argument(
          "delta_rewire_node: fanin lies inside the node's fan-out cone (cycle)");

  fanins[idx(v)] = new_fanins;

  edges.clear();
  for (int dst = 0; dst < num_nodes; ++dst)
    for (int f : fanins[idx(dst)]) edges.emplace_back(f, dst);

  // Re-levelize the cone in topological order (Kahn over cone-internal
  // edges); fanins outside the cone already carry final levels.
  std::vector<int> indeg(idx(num_nodes), 0);
  std::vector<int> queue;
  for (int u = 0; u < num_nodes; ++u) {
    if (in_cone[idx(u)] == 0) continue;
    for (int f : fanins[idx(u)])
      if (in_cone[idx(f)] != 0) ++indeg[idx(u)];
    if (indeg[idx(u)] == 0) queue.push_back(u);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    int lv = 0;
    for (int f : fanins[idx(u)]) lv = std::max(lv, level[idx(f)] + 1);
    level[idx(u)] = lv;
    for (int d : fanouts[idx(u)])
      if (in_cone[idx(d)] != 0 && --indeg[idx(d)] == 0) queue.push_back(d);
  }

  // Moved endpoints invalidate skip-edge level_diffs; a diff below 1 would
  // gather from a not-yet-updated level in the forward sweep, so drop it.
  std::vector<analysis::SkipEdge> kept_skip;
  kept_skip.reserve(skip_edges.size());
  for (auto e : skip_edges) {
    const int diff = level[idx(e.dst)] - level[idx(e.src)];
    if (diff != e.level_diff) {
      if (diff < 1) continue;
      e.level_diff = diff;
    }
    kept_skip.push_back(e);
  }
  skip_edges = std::move(kept_skip);

  finalize();
}

CircuitGraph CircuitGraph::from_gate_graph(const aig::GateGraph& g,
                                           const std::vector<double>& labels) {
  assert(labels.size() == g.size());
  CircuitGraph cg;
  cg.num_nodes = static_cast<int>(g.size());
  cg.num_types = 3;
  cg.type_id.resize(g.size());
  cg.level = g.level;
  for (std::size_t v = 0; v < g.size(); ++v) {
    cg.type_id[v] = static_cast<int>(g.kind[v]);
    for (int s = 0; s < 2; ++s)
      if (g.fanin[v][s] >= 0) cg.edges.emplace_back(g.fanin[v][s], static_cast<int>(v));
  }
  cg.labels.assign(labels.begin(), labels.end());
  cg.skip_edges = analysis::find_reconvergences(g);
  cg.finalize();
  return cg;
}

CircuitGraph CircuitGraph::from_netlist(const netlist::Netlist& nl,
                                        const std::vector<double>& labels) {
  assert(labels.size() == nl.size());
  CircuitGraph cg;
  cg.num_nodes = static_cast<int>(nl.size());
  cg.num_types = 9;
  cg.type_id.resize(nl.size());
  cg.level = nl.levels();
  for (std::size_t i = 0; i < nl.size(); ++i) {
    cg.type_id[i] = static_cast<int>(nl.gate(static_cast<int>(i)).type);
    for (int f : nl.gate(static_cast<int>(i)).fanins)
      cg.edges.emplace_back(f, static_cast<int>(i));
  }
  cg.labels.assign(labels.begin(), labels.end());
  // Raw netlists get no skip edges (the paper only applies the reconvergence
  // machinery to AIGs); fwd_skip degenerates to fwd.
  cg.finalize();
  return cg;
}

std::vector<int> CircuitGraph::member_of_level_rows(int L) const {
  const auto& nodes = nodes_at_level[static_cast<std::size_t>(L)];
  std::vector<int> member_of_row(nodes.size());
  std::size_t m = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    while (m < members.size() &&
           nodes[i] >= members[m].node_offset + members[m].num_nodes)
      ++m;
    assert(m < members.size());
    member_of_row[i] = static_cast<int>(m);
  }
  return member_of_row;
}

CircuitGraph CircuitGraph::merge(const std::vector<const CircuitGraph*>& parts) {
  CircuitGraph out;
  if (parts.empty()) {
    out.num_nodes = 0;
    out.finalize();
    return out;
  }
  for (const CircuitGraph* p : parts) {
    if (p == nullptr) throw std::invalid_argument("CircuitGraph::merge: null part");
    if (p->is_batch())
      throw std::invalid_argument("CircuitGraph::merge: parts must not be batches themselves");
    if (p->num_types != parts[0]->num_types)
      throw std::invalid_argument("CircuitGraph::merge: num_types mismatch");
  }
  out.num_types = parts[0]->num_types;

  std::size_t total_nodes = 0, total_edges = 0, total_skip = 0;
  for (const CircuitGraph* p : parts) {
    total_nodes += static_cast<std::size_t>(p->num_nodes);
    total_edges += p->edges.size();
    total_skip += p->skip_edges.size();
  }
  out.members.reserve(parts.size());
  out.type_id.reserve(total_nodes);
  out.level.reserve(total_nodes);
  out.labels.reserve(total_nodes);
  out.edges.reserve(total_edges);
  out.skip_edges.reserve(total_skip);

  // Concatenating in part order keeps each member's edges in their original
  // relative order, which (with finalize's stable per-level sort) preserves
  // every destination node's message accumulation order — the property that
  // makes merged forwards bit-exact per member.
  int offset = 0;
  for (const CircuitGraph* p : parts) {
    out.members.push_back({offset, p->num_nodes});
    out.type_id.insert(out.type_id.end(), p->type_id.begin(), p->type_id.end());
    out.level.insert(out.level.end(), p->level.begin(), p->level.end());
    out.labels.insert(out.labels.end(), p->labels.begin(), p->labels.end());
    for (const auto& [src, dst] : p->edges) out.edges.emplace_back(src + offset, dst + offset);
    for (const auto& e : p->skip_edges)
      out.skip_edges.push_back({e.src + offset, e.dst + offset, e.level_diff});
    offset += p->num_nodes;
  }
  out.num_nodes = static_cast<int>(total_nodes);
  out.finalize();
  return out;
}

nn::Matrix member_rows(const nn::Matrix& full, const GraphMember& m) {
  nn::Matrix out(m.num_nodes, full.cols());
  for (int r = 0; r < m.num_nodes; ++r) {
    const float* src = full.row_ptr(m.node_offset + r);
    std::copy(src, src + full.cols(), out.row_ptr(r));
  }
  return out;
}

std::vector<float> member_column(const nn::Matrix& full, const GraphMember& m) {
  std::vector<float> out(static_cast<std::size_t>(m.num_nodes));
  for (int v = 0; v < m.num_nodes; ++v)
    out[static_cast<std::size_t>(v)] = full.at(m.node_offset + v, 0);
  return out;
}

std::vector<std::vector<std::size_t>> plan_node_batches_by_depth(
    const std::vector<const CircuitGraph*>& graphs, std::size_t node_budget,
    std::size_t max_graphs) {
  std::vector<std::vector<std::size_t>> groups;
  if (graphs.empty()) return groups;
  const std::size_t cap = max_graphs == 0 ? 1 : max_graphs;

  // Order by merge-compatibility class, then depth, then request index. The
  // final index tie-break keeps the plan deterministic for any input order.
  std::vector<std::size_t> order(graphs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const CircuitGraph* ga = graphs[a];
    const CircuitGraph* gb = graphs[b];
    if (ga->num_types != gb->num_types) return ga->num_types < gb->num_types;
    if (ga->num_levels != gb->num_levels) return ga->num_levels < gb->num_levels;
    return a < b;
  });

  std::size_t nodes = 0;
  for (const std::size_t i : order) {
    const CircuitGraph* g = graphs[i];
    const std::size_t n = static_cast<std::size_t>(g->num_nodes);
    const bool open = !groups.empty() && !groups.back().empty();
    const CircuitGraph* head = open ? graphs[groups.back().front()] : nullptr;
    const bool incompatible =
        open && (g->num_types != head->num_types || g->is_batch() || head->is_batch());
    if (!open || incompatible || node_budget == 0 || nodes + n > node_budget ||
        groups.back().size() >= cap) {
      groups.emplace_back();
      nodes = 0;
    }
    groups.back().push_back(i);
    nodes += n;
  }
  return groups;
}

void CircuitGraph::serialize(std::vector<std::uint8_t>& out) const {
  using util::put_f32;
  using util::put_i32;
  using util::put_u64;
  put_i32(out, num_nodes);
  put_i32(out, num_types);
  for (int t : type_id) put_i32(out, t);
  for (int l : level) put_i32(out, l);
  put_u64(out, edges.size());
  for (const auto& [src, dst] : edges) {
    put_i32(out, src);
    put_i32(out, dst);
  }
  put_u64(out, skip_edges.size());
  for (const auto& e : skip_edges) {
    put_i32(out, e.src);
    put_i32(out, e.dst);
  }
  for (float l : labels) put_f32(out, l);
}

bool CircuitGraph::deserialize(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                               CircuitGraph& g) {
  util::ByteReader r(data + offset, size - offset);
  CircuitGraph cg;
  cg.num_nodes = r.i32();
  cg.num_types = r.i32();
  if (!r.ok() || cg.num_nodes < 0 || cg.num_types <= 0 || cg.num_types > kMaxNumTypes)
    return false;
  // Each node costs at least 8 stored bytes; reject counts the buffer cannot
  // possibly hold before any allocation happens.
  if (static_cast<std::size_t>(cg.num_nodes) > r.remaining() / 8) return false;

  const auto n = static_cast<std::size_t>(cg.num_nodes);
  cg.type_id.resize(n);
  cg.level.resize(n);
  for (auto& t : cg.type_id) t = r.i32();
  for (auto& l : cg.level) l = r.i32();
  if (!r.ok()) return false;
  for (std::size_t v = 0; v < n; ++v) {
    if (cg.type_id[v] < 0 || cg.type_id[v] >= cg.num_types) return false;
    if (cg.level[v] < 0 || cg.level[v] > cg.num_nodes) return false;
  }

  // Every edge must point strictly upward in level — the levelized forward
  // relies on it, and it is what rules out cycles. A skip edge's
  // level_diff is not stored: it is its endpoints' level rise, which must
  // be at least one for the same reason.
  const auto in_range = [&](int v) { return v >= 0 && v < cg.num_nodes; };
  const auto rise = [&](int src, int dst) {
    return cg.level[static_cast<std::size_t>(dst)] - cg.level[static_cast<std::size_t>(src)];
  };
  const std::uint64_t num_edges = r.u64();
  if (!r.ok() || num_edges > r.remaining() / 8) return false;
  cg.edges.resize(static_cast<std::size_t>(num_edges));
  for (auto& [src, dst] : cg.edges) {
    src = r.i32();
    dst = r.i32();
    if (!r.ok() || !in_range(src) || !in_range(dst) || rise(src, dst) < 1) return false;
  }
  const std::uint64_t num_skip = r.u64();
  if (!r.ok() || num_skip > r.remaining() / 8) return false;
  cg.skip_edges.resize(static_cast<std::size_t>(num_skip));
  for (auto& e : cg.skip_edges) {
    e.src = r.i32();
    e.dst = r.i32();
    if (!r.ok() || !in_range(e.src) || !in_range(e.dst)) return false;
    e.level_diff = rise(e.src, e.dst);
    if (e.level_diff < 1) return false;
  }
  cg.labels.resize(n);
  for (auto& l : cg.labels) l = r.f32();
  if (!r.ok()) return false;

  cg.finalize();
  g = std::move(cg);
  offset += r.offset();
  return true;
}

bool bit_equal(const CircuitGraph& a, const CircuitGraph& b) {
  const auto skip_eq = [](const analysis::SkipEdge& x, const analysis::SkipEdge& y) {
    return x.src == y.src && x.dst == y.dst && x.level_diff == y.level_diff;
  };
  if (a.num_nodes != b.num_nodes || a.num_types != b.num_types ||
      a.type_id != b.type_id || a.level != b.level || a.edges != b.edges ||
      a.labels != b.labels)
    return false;
  if (a.skip_edges.size() != b.skip_edges.size()) return false;
  for (std::size_t i = 0; i < a.skip_edges.size(); ++i)
    if (!skip_eq(a.skip_edges[i], b.skip_edges[i])) return false;
  return true;
}

}  // namespace dg::gnn
