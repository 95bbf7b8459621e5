// On-disk shard format for the prepared dataset — the durable half of the
// sharded pipeline in dataset.cpp.
//
// File layout (all integers little-endian):
//   magic "DGSH" | u32 version |
//   u64 config_hash | u64 seed | u32 shard_index | u32 num_records |
//   per record: u32 family_len | family bytes | u64 nodes | i32 levels |
//               CircuitGraph blob (see CircuitGraph::serialize) |
//   u64 checksum   (FNV-1a over everything after magic+version)
//
// A shard is keyed by (config_hash, seed, shard_index): the hash covers every
// knob that influences generation, so any configuration change invalidates
// the cache automatically. Readers validate magic, version, key, and checksum
// before yielding a single record, and bound the record count by the bytes
// present before anything is allocated; corrupt, truncated or forged files
// and paths that are not regular files are reported, never trusted.
// ShardStream reads a list of such files back one shard at a time.
#pragma once

#include "gnn/circuit_graph.hpp"
#include "gnn/trainer.hpp"
#include "obs/metrics.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace dg::data {

/// Per-sample Table I bookkeeping stored alongside each graph.
struct GraphInfo {
  std::string family;
  std::size_t nodes = 0;
  int levels = 0;
};

struct ShardRecord {
  gnn::CircuitGraph graph;
  GraphInfo info;
};

struct ShardHeader {
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t num_records = 0;
};

enum class ShardError {
  kNone,
  kIo,           ///< open/read failure
  kBadMagic,     ///< not a shard file
  kBadVersion,   ///< format version this build does not understand
  kChecksum,     ///< payload does not match the stored checksum
  kCorrupt,      ///< structurally invalid record data
};

const char* shard_error_name(ShardError e);

/// Current format version written by write_shard.
inline constexpr std::uint32_t kShardFormatVersion = 1;

/// Serialize `records` under the given key. Writes to a temporary sibling
/// file and renames into place, so concurrent producers of the same shard
/// never expose a half-written file. Returns false on I/O failure.
bool write_shard(const std::string& path, std::uint64_t config_hash, std::uint64_t seed,
                 std::uint32_t shard_index, const std::vector<ShardRecord>& records);

/// Validating reader over one shard file. open() checks magic, version, and
/// checksum up front; next() then streams records one at a time (a corrupt
/// record flips error() and ends iteration).
class ShardReader {
 public:
  ShardError open(const std::string& path);

  const ShardHeader& header() const { return header_; }
  ShardError error() const { return error_; }

  /// Parse the next record into `out`; false when exhausted or on error.
  bool next(ShardRecord& out);

  /// Convenience: open + drain all records. Returns kNone on full success.
  static ShardError read_all(const std::string& path, ShardHeader& header,
                             std::vector<ShardRecord>& records);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t offset_ = 0;
  std::size_t payload_end_ = 0;
  std::uint32_t records_left_ = 0;
  ShardHeader header_;
  ShardError error_ = ShardError::kNone;
};

/// Filesystem cache of shard files keyed by (config_hash, seed, shard index).
/// `load` treats any mismatch — missing file, stale key, corruption — as a
/// miss, so the worst case is regeneration, never wrong data.
class ShardCache {
 public:
  ShardCache(std::string dir, std::uint64_t config_hash, std::uint64_t seed);

  const std::string& dir() const { return dir_; }
  std::string shard_path(std::uint32_t index) const;

  bool load(std::uint32_t index, std::vector<ShardRecord>& out) const;
  bool store(std::uint32_t index, const std::vector<ShardRecord>& records) const;

 private:
  std::string dir_;
  std::uint64_t config_hash_;
  std::uint64_t seed_;
};

/// Iterate a list of shard files one shard at a time, so training can stream
/// the dataset without ever materializing all graphs in memory. Implements
/// the trainer's GraphStream interface; each next() reads and decodes one
/// shard on the calling thread, and a shard that fails validation is
/// skipped with a warning.
///
/// Thread affinity (why this class carries no util::Mutex): one consumer
/// thread drives next()/reset() and owns all of the stream's state. Sharing
/// one ShardStream across consumer threads is out of contract.
class ShardStream final : public gnn::GraphStream {
 public:
  explicit ShardStream(std::vector<std::string> paths);

  bool next(std::vector<gnn::CircuitGraph>& out) override;
  void reset() override;

  /// Shards read and decoded from disk so far (skipped shards excluded).
  std::size_t disk_loads() const { return disk_loads_.value(); }

 private:
  std::vector<std::string> paths_;
  std::size_t cursor_ = 0;

  obs::Scope scope_;
  obs::Counter& disk_loads_ = scope_.counter("data.shard_stream.disk_loads");
};

}  // namespace dg::data
