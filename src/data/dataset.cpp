#include "data/dataset.hpp"

#include "data/generators_small.hpp"
#include "netlist/to_aig.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "synth/sweep.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace dg::data {

DatasetConfig default_dataset_config(util::BenchScale scale, std::uint64_t seed) {
  // Table I counts, scaled. The node/level envelopes per family follow the
  // ranges reported in the paper.
  double factor = 1.0;
  switch (scale) {
    case util::BenchScale::kTiny: factor = 1.0 / 400.0; break;
    case util::BenchScale::kSmall: factor = 1.0 / 50.0; break;
    case util::BenchScale::kPaper: factor = 1.0; break;
  }
  auto scaled = [&](std::size_t paper_count) {
    return std::max<std::size_t>(4, static_cast<std::size_t>(paper_count * factor));
  };
  auto env = [](std::size_t min_n, std::size_t max_n, int min_l, int max_l) {
    ExtractConfig cfg;
    cfg.min_nodes = min_n;
    cfg.max_nodes = max_n;
    cfg.min_level = min_l;
    cfg.max_level = max_l;
    return cfg;
  };
  DatasetConfig cfg;
  cfg.seed = seed;
  cfg.families = {
      {"EPFL", scaled(828), env(52, 341, 4, 17)},
      {"ITC99", scaled(7560), env(36, 1947, 3, 23)},
      {"IWLS", scaled(1281), env(41, 2268, 5, 24)},
      {"Opencores", scaled(1155), env(51, 3214, 4, 18)},
  };
  if (scale != util::BenchScale::kPaper) cfg.sim_patterns = 100000;
  return cfg;
}

namespace {

/// One unit of parallel work: a fixed slice of a family's quota plus the RNG
/// seed that fully determines its contents.
struct ShardPlan {
  const FamilySpec* family = nullptr;
  std::size_t quota = 0;
  std::uint64_t seed = 0;
};

/// Produce one shard's worth of sub-circuits. Pure function of (plan, cfg):
/// the shard owns its RNG stream end to end, and the nested pattern
/// simulation is bit-identical at every thread count, so the result does not
/// depend on which worker runs the shard or on what runs concurrently.
std::vector<ShardRecord> generate_shard(const ShardPlan& plan, const DatasetConfig& cfg) {
  std::vector<ShardRecord> out;
  out.reserve(plan.quota);
  util::Rng rng(plan.seed);
  const FamilySpec& family = *plan.family;
  std::size_t produced = 0;
  int dry_bases = 0;
  while (produced < plan.quota && dry_bases < cfg.max_dry_bases) {
    // Fresh randomized base design, then window several cones out of it.
    netlist::Netlist base_nl = generate_family(family.name, rng);
    aig::Aig base = synth::optimize(netlist::to_aig(base_nl));
    const std::size_t want = std::min<std::size_t>(plan.quota - produced, 4);
    auto cones = extract_subcircuits(base, want, family.extract, rng);
    if (cones.empty()) {
      ++dry_bases;
      continue;
    }
    dry_bases = 0;
    for (auto& cone : cones) {
      const aig::GateGraph g = aig::to_gate_graph(cone);
      const auto labels =
          sim::gate_graph_probabilities(g, cfg.sim_patterns, rng.next_u64());
      out.push_back({gnn::CircuitGraph::from_gate_graph(g, labels, cfg.pe_L),
                     {family.name, g.size(), g.num_levels - 1}});
      ++produced;
    }
  }
  return out;
}

}  // namespace

BuildOptions BuildOptions::from_env() {
  BuildOptions opts;
  opts.cache_dir = util::env_str("DEEPGATE_DATA_DIR");
  return opts;
}

std::uint64_t dataset_config_hash(const DatasetConfig& cfg, const BuildOptions& opts) {
  util::Fnv1a h;
  h.u32(kShardFormatVersion);
  h.u64(cfg.families.size());
  for (const auto& f : cfg.families) {
    h.str(f.name);
    h.u64(f.num_subcircuits);
    h.u64(f.extract.min_nodes).u64(f.extract.max_nodes);
    h.i32(f.extract.min_level).i32(f.extract.max_level);
    h.i32(f.extract.tries_per_cone);
  }
  h.u64(cfg.sim_patterns);
  h.i32(cfg.pe_L);
  h.i32(cfg.max_dry_bases);
  h.u64(opts.shard_size);
  return h.digest();
}

Dataset build_dataset(const DatasetConfig& cfg) {
  return build_dataset(cfg, BuildOptions::from_env());
}

Dataset build_dataset(const DatasetConfig& cfg, const BuildOptions& opts) {
  const std::size_t shard_size = std::max<std::size_t>(1, opts.shard_size);

  // Derive every shard's seed serially up front — the fork sequence depends
  // only on the config, never on worker count or scheduling.
  std::vector<ShardPlan> plan;
  util::Rng rng(cfg.seed);
  for (const auto& family : cfg.families) {
    util::Rng family_rng = rng.fork();
    for (std::size_t done = 0; done < family.num_subcircuits; done += shard_size)
      plan.push_back({&family,
                      std::min(shard_size, family.num_subcircuits - done),
                      family_rng.next_u64()});
  }

  const bool use_cache = !opts.cache_dir.empty();
  ShardCache cache(opts.cache_dir, dataset_config_hash(cfg, opts), cfg.seed);

  // Fan shard production across the pool. Each chunk touches only its own
  // slot, so dynamic chunk claiming cannot perturb the result order.
  std::vector<std::vector<ShardRecord>> shards(plan.size());
  std::vector<char> persisted(plan.size(), 0);
  util::global_pool().run_chunks(static_cast<int>(plan.size()), [&](int i) {
    const auto idx = static_cast<std::uint32_t>(i);
    auto& slot = shards[static_cast<std::size_t>(i)];
    if (use_cache && cache.load(idx, slot)) {
      persisted[static_cast<std::size_t>(i)] = 1;
      return;
    }
    slot = generate_shard(plan[static_cast<std::size_t>(i)], cfg);
    if (!use_cache) return;
    if (cache.store(idx, slot))
      persisted[static_cast<std::size_t>(i)] = 1;
    else
      util::log_warn("shard cache: could not write ", cache.shard_path(idx));
  });

  // shard_files promises a faithful on-disk replay of `graphs`; a single
  // failed write breaks that, so publish the list only when it is complete.
  const bool all_persisted =
      use_cache && std::all_of(persisted.begin(), persisted.end(),
                               [](char p) { return p != 0; });
  if (use_cache && !all_persisted && !plan.empty())
    util::log_warn("shard cache: incomplete (", opts.cache_dir,
                   "); Dataset::shard_files left empty");

  Dataset ds;
  std::map<std::string, std::size_t> produced_by_family;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    produced_by_family[plan[s].family->name] += shards[s].size();
    for (auto& rec : shards[s]) {
      ds.graphs.push_back(std::move(rec.graph));
      ds.info.push_back(std::move(rec.info));
    }
    if (all_persisted) ds.shard_files.push_back(cache.shard_path(static_cast<std::uint32_t>(s)));
  }
  for (const auto& family : cfg.families) {
    const std::size_t produced = produced_by_family[family.name];
    if (produced < family.num_subcircuits)
      util::log_warn("family ", family.name, ": produced ", produced, "/",
                     family.num_subcircuits, " subcircuits");
  }
  return ds;
}

void Dataset::split(double train_fraction, std::uint64_t seed,
                    std::vector<gnn::CircuitGraph>& train,
                    std::vector<gnn::CircuitGraph>& test) const {
  train.clear();
  test.clear();
  if (graphs.empty()) return;
  const double fraction = std::clamp(train_fraction, 0.0, 1.0);
  std::vector<int> order(graphs.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed);
  rng.shuffle(order);
  const std::size_t n_train = std::min(
      graphs.size(),
      static_cast<std::size_t>(fraction * static_cast<double>(graphs.size())));
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i < n_train)
      train.push_back(graphs[static_cast<std::size_t>(order[i])]);
    else
      test.push_back(graphs[static_cast<std::size_t>(order[i])]);
  }
}

std::vector<FamilyStats> dataset_stats(const Dataset& ds) {
  std::map<std::string, FamilyStats> by_family;
  for (const auto& info : ds.info) {
    auto& stats = by_family[info.family];
    if (stats.count == 0) {
      stats = {info.family, 1, info.nodes, info.nodes, info.levels, info.levels};
    } else {
      ++stats.count;
      stats.min_nodes = std::min(stats.min_nodes, info.nodes);
      stats.max_nodes = std::max(stats.max_nodes, info.nodes);
      stats.min_level = std::min(stats.min_level, info.levels);
      stats.max_level = std::max(stats.max_level, info.levels);
    }
  }
  std::vector<FamilyStats> out;
  // Table I row order.
  for (const auto& name : family_names()) {
    auto it = by_family.find(name);
    if (it != by_family.end()) out.push_back(it->second);
  }
  return out;
}

PairedDataset build_paired_dataset(const std::string& family, std::size_t count,
                                   std::size_t sim_patterns, std::uint64_t seed, int pe_L) {
  PairedDataset ds;
  util::Rng rng(seed);
  int dry = 0;
  while (ds.raw.size() < count && dry < 200) {
    netlist::Netlist base = generate_family(family, rng);
    // Window: random output cone with a gate budget in the paper's range.
    const auto& outs = base.outputs();
    std::vector<int> roots{outs[static_cast<std::size_t>(rng.next_below(outs.size()))]};
    const std::size_t budget = static_cast<std::size_t>(rng.next_range(60, 600));
    netlist::Netlist cone = extract_netlist_cone(base, roots, budget);
    if (cone.size() < 30 || cone.depth() < 3) {
      ++dry;
      continue;
    }

    // Raw version: original gate types in 2-input-mapped form (the shape a
    // technology-mapped netlist takes), simulated labels.
    const netlist::Netlist mapped = netlist::decompose_to_2input(cone);
    const auto raw_labels = sim::netlist_probabilities(mapped, sim_patterns, rng.next_u64());
    ds.raw.push_back(gnn::CircuitGraph::from_netlist(mapped, raw_labels, pe_L));

    // Transformed version: AIG of the same function.
    aig::Aig a = synth::optimize(netlist::to_aig(cone));
    if (a.num_ands() == 0 || a.uses_constants()) {
      ds.raw.pop_back();
      ++dry;
      continue;
    }
    const aig::GateGraph g = aig::to_gate_graph(a);
    const auto aig_labels = sim::gate_graph_probabilities(g, sim_patterns, rng.next_u64());
    ds.aig.push_back(gnn::CircuitGraph::from_gate_graph(g, aig_labels, pe_L));
  }
  return ds;
}

gnn::CircuitGraph graph_from_aig(const aig::Aig& aig, std::size_t sim_patterns,
                                 std::uint64_t seed, int pe_L) {
  aig::Aig prepared = synth::optimize(aig);
  if (prepared.uses_constants()) prepared = synth::drop_constant_outputs(prepared);
  const aig::GateGraph g = aig::to_gate_graph(prepared);
  const auto labels = sim::gate_graph_probabilities(g, sim_patterns, seed);
  return gnn::CircuitGraph::from_gate_graph(g, labels, pe_L);
}

}  // namespace dg::data
