#include "data/shard_io.hpp"

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace dg::data {
namespace {

obs::Counter& bytes_read_counter() {
  static obs::Counter& c = obs::counter("data.shard_io.read_bytes");
  return c;
}

constexpr char kMagic[4] = {'D', 'G', 'S', 'H'};
constexpr std::size_t kMagicAndVersion = 8;  // magic + u32 version
// Smallest record: family length, node count and level count (16 bytes),
// then an empty graph's header and its edge and skip-edge counts (28 bytes).
constexpr std::size_t kMinRecordBytes = 16 + 28;

void serialize_record(std::vector<std::uint8_t>& out, const ShardRecord& rec) {
  util::put_str(out, rec.info.family);
  util::put_u64(out, rec.info.nodes);
  util::put_i32(out, rec.info.levels);
  rec.graph.serialize(out);
}

}  // namespace

const char* shard_error_name(ShardError e) {
  switch (e) {
    case ShardError::kNone: return "none";
    case ShardError::kIo: return "io";
    case ShardError::kBadMagic: return "bad-magic";
    case ShardError::kBadVersion: return "bad-version";
    case ShardError::kChecksum: return "checksum";
    case ShardError::kCorrupt: return "corrupt";
  }
  return "?";
}

bool write_shard(const std::string& path, std::uint64_t config_hash, std::uint64_t seed,
                 std::uint32_t shard_index, const std::vector<ShardRecord>& records) {
  std::vector<std::uint8_t> buf;
  for (char c : kMagic) buf.push_back(static_cast<std::uint8_t>(c));
  util::put_u32(buf, kShardFormatVersion);
  util::put_u64(buf, config_hash);
  util::put_u64(buf, seed);
  util::put_u32(buf, shard_index);
  util::put_u32(buf, static_cast<std::uint32_t>(records.size()));
  for (const auto& rec : records) serialize_record(buf, rec);
  const std::uint64_t checksum =
      util::fnv1a_bytes(buf.data() + kMagicAndVersion, buf.size() - kMagicAndVersion);
  util::put_u64(buf, checksum);

  // Write-then-rename so a crashed or concurrent producer never leaves a
  // half-written file under the final name. The temp name must be unique per
  // writer (pid + in-process counter): concurrent producers of the same
  // shard would otherwise truncate each other's in-flight temp file.
  static std::atomic<std::uint64_t> tmp_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    out.flush();
    if (!out.good()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  static obs::Counter& written = obs::counter("data.shard_io.write_bytes");
  written.add(buf.size());
  return true;
}

ShardError ShardReader::open(const std::string& path) {
  error_ = ShardError::kNone;
  records_left_ = 0;
  // A directory (or device) at the path opens as a stream but has no
  // meaningful size; only regular files are read.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return error_ = ShardError::kIo;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return error_ = ShardError::kIo;
  const std::streamsize size = in.tellg();
  if (size < 0) return error_ = ShardError::kIo;
  in.seekg(0);
  buf_.resize(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(buf_.data()), size)) return error_ = ShardError::kIo;
  bytes_read_counter().add(buf_.size());

  // Smallest legal file: magic+version, header, checksum.
  if (buf_.size() < kMagicAndVersion + 24 + 8) return error_ = ShardError::kCorrupt;
  if (!std::equal(kMagic, kMagic + 4, buf_.data())) return error_ = ShardError::kBadMagic;

  util::ByteReader r(buf_.data() + 4, buf_.size() - 4);
  const std::uint32_t version = r.u32();
  if (version != kShardFormatVersion) return error_ = ShardError::kBadVersion;

  payload_end_ = buf_.size() - 8;
  util::ByteReader tail(buf_.data() + payload_end_, 8);
  const std::uint64_t stored = tail.u64();
  const std::uint64_t computed =
      util::fnv1a_bytes(buf_.data() + kMagicAndVersion, payload_end_ - kMagicAndVersion);
  if (stored != computed) return error_ = ShardError::kChecksum;

  header_.config_hash = r.u64();
  header_.seed = r.u64();
  header_.shard_index = r.u32();
  header_.num_records = r.u32();
  offset_ = 4 + r.offset();
  // The checksum is not a MAC: a forged header can claim any record count.
  // Bound it by what the payload can hold before a caller reserves for it.
  if (header_.num_records > (payload_end_ - offset_) / kMinRecordBytes)
    return error_ = ShardError::kCorrupt;
  records_left_ = header_.num_records;
  return ShardError::kNone;
}

bool ShardReader::next(ShardRecord& out) {
  if (error_ != ShardError::kNone || records_left_ == 0) return false;
  util::ByteReader r(buf_.data() + offset_, payload_end_ - offset_);
  ShardRecord rec;
  rec.info.family = r.str();
  rec.info.nodes = static_cast<std::size_t>(r.u64());
  rec.info.levels = r.i32();
  if (!r.ok()) {
    error_ = ShardError::kCorrupt;
    return false;
  }
  std::size_t graph_offset = offset_ + r.offset();
  if (!gnn::CircuitGraph::deserialize(buf_.data(), payload_end_, graph_offset, rec.graph)) {
    error_ = ShardError::kCorrupt;
    return false;
  }
  offset_ = graph_offset;
  --records_left_;
  out = std::move(rec);
  if (records_left_ == 0 && offset_ != payload_end_) error_ = ShardError::kCorrupt;
  return error_ == ShardError::kNone;
}

ShardError ShardReader::read_all(const std::string& path, ShardHeader& header,
                                 std::vector<ShardRecord>& records) {
  ShardReader reader;
  const ShardError open_err = reader.open(path);
  if (open_err != ShardError::kNone) return open_err;
  header = reader.header();
  records.clear();
  records.reserve(header.num_records);
  ShardRecord rec;
  while (reader.next(rec)) records.push_back(std::move(rec));
  return reader.error();
}

ShardCache::ShardCache(std::string dir, std::uint64_t config_hash, std::uint64_t seed)
    : dir_(std::move(dir)), config_hash_(config_hash), seed_(seed) {}

std::string ShardCache::shard_path(std::uint32_t index) const {
  char name[96];
  std::snprintf(name, sizeof(name), "shard-%016llx-s%llu-%05u.dgsh",
                static_cast<unsigned long long>(config_hash_),
                static_cast<unsigned long long>(seed_), index);
  return (std::filesystem::path(dir_) / name).string();
}

bool ShardCache::load(std::uint32_t index, std::vector<ShardRecord>& out) const {
  static obs::Counter& hits = obs::counter("data.shard_cache.hits");
  static obs::Counter& misses = obs::counter("data.shard_cache.misses");
  // A regenerating producer can hit these warnings once per shard per epoch;
  // rate-limit so a cold or corrupted cache dir doesn't flood benches.
  static util::LogRateLimit reject_limit(1.0);
  static util::LogRateLimit mismatch_limit(1.0);
  const std::string path = shard_path(index);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    misses.add();
    return false;
  }
  ShardHeader header;
  const ShardError err = ShardReader::read_all(path, header, out);
  if (err != ShardError::kNone) {
    util::log_warn_limited(reject_limit, "shard cache: ", path, " rejected (",
                           shard_error_name(err), "), regenerating");
    out.clear();
    misses.add();
    return false;
  }
  if (header.config_hash != config_hash_ || header.seed != seed_ ||
      header.shard_index != index) {
    util::log_warn_limited(mismatch_limit, "shard cache: ", path, " key mismatch, regenerating");
    out.clear();
    misses.add();
    return false;
  }
  hits.add();
  return true;
}

bool ShardCache::store(std::uint32_t index, const std::vector<ShardRecord>& records) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;
  return write_shard(shard_path(index), config_hash_, seed_, index, records);
}

ShardStream::ShardStream(std::vector<std::string> paths) : paths_(std::move(paths)) {}

void ShardStream::reset() { cursor_ = 0; }

bool ShardStream::next(std::vector<gnn::CircuitGraph>& out) {
  while (cursor_ < paths_.size()) {
    const std::string& path = paths_[cursor_++];
    ShardHeader header;
    std::vector<ShardRecord> records;
    const ShardError err = ShardReader::read_all(path, header, records);
    if (err != ShardError::kNone) {
      static util::LogRateLimit skip_limit(1.0);
      util::log_warn_limited(skip_limit, "shard stream: skipping ", path, " (",
                             shard_error_name(err), ")");
      continue;
    }
    disk_loads_.add();
    out.clear();
    out.reserve(records.size());
    for (auto& rec : records) out.push_back(std::move(rec.graph));
    return true;
  }
  return false;
}

}  // namespace dg::data
