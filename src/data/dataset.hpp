// End-to-end dataset assembly — the "Circuit Data Preparation" stage of
// Fig. 2(a): generate family netlists, map to AIG, optimize, window into
// sub-circuits, simulate random patterns for per-node signal probabilities,
// and package everything as model-ready CircuitGraphs with a 90/10 split.
//
// Preparation is sharded: each family's quota is partitioned into fixed-size
// shards whose RNG streams are derived serially up front, then shard
// production fans out across the global thread pool. Results are therefore
// bit-identical at every thread count and schedule. With a cache directory
// configured (DEEPGATE_DATA_DIR or BuildOptions::cache_dir) finished shards
// are persisted in the shard_io format and reused on the next run, and
// Dataset::shard_files lists them for a ShardStream to replay.
#pragma once

#include "data/extract.hpp"
#include "data/shard_io.hpp"
#include "gnn/circuit_graph.hpp"
#include "util/env.hpp"

#include <string>
#include <vector>

namespace dg::data {

struct FamilySpec {
  std::string name;
  std::size_t num_subcircuits = 0;
  ExtractConfig extract;
};

struct DatasetConfig {
  std::vector<FamilySpec> families;
  std::size_t sim_patterns = 100000;  ///< paper: up to 100k random patterns
  std::uint64_t seed = 1;
  int pe_L = 8;
  int max_dry_bases = 50;  ///< per-shard limit on consecutive base designs
                           ///< that yield no acceptable cone before the shard
                           ///< gives up (guards impossible envelopes)
};

/// Family mix mirroring Table I's proportions (EPFL 828 / ITC99 7560 /
/// IWLS 1281 / Opencores 1155 at kPaper; scaled down for kSmall/kTiny).
DatasetConfig default_dataset_config(util::BenchScale scale, std::uint64_t seed = 1);

struct Dataset {
  std::vector<gnn::CircuitGraph> graphs;
  std::vector<GraphInfo> info;  ///< parallel to graphs; see shard_io.hpp

  /// Shard files backing this dataset (empty when the cache is disabled).
  /// In shard order, so ShardStream over them yields `graphs` exactly.
  std::vector<std::string> shard_files;

  /// Deterministic shuffled split; fractions of the paper: 90/10.
  /// `train_fraction` is clamped to [0, 1]; an empty dataset yields two
  /// empty halves.
  void split(double train_fraction, std::uint64_t seed, std::vector<gnn::CircuitGraph>& train,
             std::vector<gnn::CircuitGraph>& test) const;
};

struct BuildOptions {
  /// Shard cache directory; empty disables the on-disk cache.
  std::string cache_dir;
  /// Sub-circuits per shard: the parallelism grain and cache-file unit.
  std::size_t shard_size = 8;

  /// cache_dir from DEEPGATE_DATA_DIR (cache disabled when unset).
  static BuildOptions from_env();
};

/// Key covering every generation knob (families, envelopes, pattern count,
/// pe_L, shard size, format version) EXCEPT the seed, which is a separate
/// cache-key component. Any config change invalidates cached shards.
std::uint64_t dataset_config_hash(const DatasetConfig& cfg, const BuildOptions& opts);

/// Sharded parallel build honoring DEEPGATE_THREADS and DEEPGATE_DATA_DIR.
Dataset build_dataset(const DatasetConfig& cfg);
Dataset build_dataset(const DatasetConfig& cfg, const BuildOptions& opts);

/// Per-family Table I statistics.
struct FamilyStats {
  std::string family;
  std::size_t count = 0;
  std::size_t min_nodes = 0, max_nodes = 0;
  int min_level = 0, max_level = 0;
};
std::vector<FamilyStats> dataset_stats(const Dataset& ds);

/// Paired dataset for the Table IV transformation ablation: the same netlist
/// windows as raw multi-gate graphs (9-type one-hot) and as optimized AIG
/// gate graphs (3-type one-hot).
struct PairedDataset {
  std::vector<gnn::CircuitGraph> raw;
  std::vector<gnn::CircuitGraph> aig;
};
PairedDataset build_paired_dataset(const std::string& family, std::size_t count,
                                   std::size_t sim_patterns, std::uint64_t seed, int pe_L = 8);

/// Labels + graph for one AIG (Table III designs, deepgate::prepare):
/// optimize, drop the outputs optimization proved constant (the gate graph
/// has no constant node), expand to a gate graph, simulate, build the graph.
gnn::CircuitGraph graph_from_aig(const aig::Aig& aig, std::size_t sim_patterns,
                                 std::uint64_t seed, int pe_L = 8);

}  // namespace dg::data
