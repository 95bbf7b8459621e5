#include "data/shard_io.hpp"

#include "aig/aig.hpp"
#include "aig/gate_graph.hpp"
#include "sim/probability.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace dg::data {
namespace {

namespace fs = std::filesystem;

fs::path temp_dir() {
  const fs::path dir =
      fs::temp_directory_path() / ("dg_shard_io_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Hand-built graph with every serialized feature populated: three node
/// types, a skip edge (so the positional-encoding matrices are non-zero),
/// and non-trivial labels. Field values are frozen — the golden file guards
/// the byte format against accidental changes.
gnn::CircuitGraph golden_graph_a() {
  gnn::CircuitGraph g;
  g.num_nodes = 5;
  g.num_types = 3;
  g.type_id = {0, 0, 1, 2, 1};  // PI PI AND NOT AND
  g.level = {0, 0, 1, 2, 3};
  g.edges = {{0, 2}, {1, 2}, {2, 3}, {0, 4}, {3, 4}};
  g.skip_edges = {{0, 4, 3}};
  g.labels = {0.5F, 0.5F, 0.25F, 0.75F, 0.375F};
  g.finalize(4);
  return g;
}

/// Second record with a different type count and pe_L, exercising per-record
/// parameter variation within one shard.
gnn::CircuitGraph golden_graph_b() {
  gnn::CircuitGraph g;
  g.num_nodes = 4;
  g.num_types = 9;
  g.type_id = {0, 0, 3, 5};
  g.level = {0, 0, 1, 2};
  g.edges = {{0, 2}, {1, 2}, {2, 3}};
  g.labels = {0.5F, 0.5F, 0.125F, 0.875F};
  g.finalize(8);
  return g;
}

std::vector<ShardRecord> golden_records() {
  std::vector<ShardRecord> records;
  records.push_back({golden_graph_a(), {"EPFL", 5, 3}});
  records.push_back({golden_graph_b(), {"ITC99", 4, 2}});
  return records;
}

constexpr std::uint64_t kGoldenHash = 0x1234abcd5678ef00ULL;
constexpr std::uint64_t kGoldenSeed = 42;
constexpr std::uint32_t kGoldenIndex = 7;

void expect_records_equal(const std::vector<ShardRecord>& a,
                          const std::vector<ShardRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(gnn::bit_equal(a[i].graph, b[i].graph)) << "record " << i;
    EXPECT_EQ(a[i].info.family, b[i].info.family);
    EXPECT_EQ(a[i].info.nodes, b[i].info.nodes);
    EXPECT_EQ(a[i].info.levels, b[i].info.levels);
  }
}

TEST(ShardIo, RoundTripIsBitExact) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "roundtrip.dgsh").string();
  const auto records = golden_records();
  ASSERT_TRUE(write_shard(path, kGoldenHash, kGoldenSeed, kGoldenIndex, records));

  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ASSERT_EQ(ShardReader::read_all(path, header, loaded), ShardError::kNone);
  EXPECT_EQ(header.config_hash, kGoldenHash);
  EXPECT_EQ(header.seed, kGoldenSeed);
  EXPECT_EQ(header.shard_index, kGoldenIndex);
  EXPECT_EQ(header.num_records, 2U);
  expect_records_equal(records, loaded);

  // Bit-exactness of the derived structures specifically: pe_L survives, the
  // skip-edge positional encodings are byte-identical, reconvergence flags
  // (skip edges) intact.
  EXPECT_EQ(loaded[0].graph.pe_L, 4);
  EXPECT_EQ(loaded[1].graph.pe_L, 8);
  ASSERT_EQ(loaded[0].graph.skip_edges.size(), 1U);
  EXPECT_EQ(loaded[0].graph.skip_edges[0].level_diff, 3);
  fs::remove_all(dir);
}

TEST(ShardIo, RoundTripRealCircuit) {
  // A simulated AIG-derived graph (reconvergences detected, real labels)
  // survives the disk round trip bit-exactly.
  aig::Aig a;
  const auto x = aig::make_lit(a.add_input(), false);
  const auto y = aig::make_lit(a.add_input(), false);
  const auto z = aig::make_lit(a.add_input(), false);
  const auto g1 = a.add_and(x, y);
  const auto g2 = aig::lit_not(a.add_and(y, z));
  a.add_output(a.add_and(g1, g2));
  const aig::GateGraph gg = aig::to_gate_graph(a);
  const auto labels = sim::gate_graph_probabilities(gg, 4096, 11);
  const gnn::CircuitGraph cg = gnn::CircuitGraph::from_gate_graph(gg, labels, 6);

  const fs::path dir = temp_dir();
  const std::string path = (dir / "real.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 2, 0, {{cg, {"EPFL", gg.size(), gg.num_levels - 1}}}));
  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ASSERT_EQ(ShardReader::read_all(path, header, loaded), ShardError::kNone);
  ASSERT_EQ(loaded.size(), 1U);
  EXPECT_TRUE(gnn::bit_equal(cg, loaded[0].graph));
  fs::remove_all(dir);
}

TEST(ShardIo, RejectsBadMagic) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "bad_magic.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  auto bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  ShardReader reader;
  EXPECT_EQ(reader.open(path), ShardError::kBadMagic);
  fs::remove_all(dir);
}

TEST(ShardIo, RejectsWrongVersion) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "bad_version.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  auto bytes = read_file(path);
  bytes[4] = 0xFF;  // version is the u32 after the 4-byte magic
  write_file(path, bytes);
  ShardReader reader;
  EXPECT_EQ(reader.open(path), ShardError::kBadVersion);
  fs::remove_all(dir);
}

TEST(ShardIo, RejectsTruncation) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "truncated.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  const auto bytes = read_file(path);
  // Every proper prefix must be rejected at open() (checksum or size check);
  // sample a spread of truncation points to keep the test fast.
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    write_file(path, std::vector<std::uint8_t>(bytes.begin(),
                                               bytes.begin() + static_cast<long>(keep)));
    ShardReader reader;
    EXPECT_NE(reader.open(path), ShardError::kNone) << "kept " << keep << " bytes";
  }
  fs::remove_all(dir);
}

TEST(ShardIo, RejectsPayloadCorruption) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "corrupt.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x5A;  // flip bits mid-payload
  write_file(path, bytes);
  ShardReader reader;
  EXPECT_EQ(reader.open(path), ShardError::kChecksum);
  fs::remove_all(dir);
}

TEST(ShardIo, MissingFileIsIoError) {
  ShardReader reader;
  EXPECT_EQ(reader.open("/nonexistent/definitely_missing.dgsh"), ShardError::kIo);
}

/// Rewrite the header's record count of the shard at `path` and re-seal the
/// checksum, as anyone with write access to the cache directory could.
void forge_record_count(const std::string& path, std::uint32_t num_records) {
  auto bytes = read_file(path);
  ASSERT_GE(bytes.size(), 40u);
  std::vector<std::uint8_t> count;
  util::put_u32(count, num_records);
  std::copy(count.begin(), count.end(), bytes.begin() + 28);  // after hash, seed, index
  const std::size_t payload_end = bytes.size() - 8;
  std::vector<std::uint8_t> checksum;
  util::put_u64(checksum, util::fnv1a_bytes(bytes.data() + 8, payload_end - 8));
  std::copy(checksum.begin(), checksum.end(), bytes.begin() + static_cast<long>(payload_end));
  write_file(path, bytes);
}

TEST(ShardIo, RejectsRecordCountThePayloadCannotHold) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "forged_count.dgsh").string();
  // No records at all, then two real ones: either way the claimed count is
  // far beyond what the payload holds at the minimum record size.
  for (const auto& records : {std::vector<ShardRecord>{}, golden_records()}) {
    ASSERT_TRUE(write_shard(path, 1, 1, 0, records));
    forge_record_count(path, 0xFFFFFFFFu);
    ShardReader reader;
    EXPECT_EQ(reader.open(path), ShardError::kCorrupt);
    ShardHeader header;
    std::vector<ShardRecord> loaded;
    ShardError err = ShardError::kNone;
    EXPECT_NO_THROW(err = ShardReader::read_all(path, header, loaded));
    EXPECT_EQ(err, ShardError::kCorrupt);
    EXPECT_TRUE(loaded.empty());
  }
  // One more record than the two present still parses up to the payload end
  // and is then rejected, never over-read.
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  forge_record_count(path, 3);
  ShardHeader header;
  std::vector<ShardRecord> loaded;
  EXPECT_EQ(ShardReader::read_all(path, header, loaded), ShardError::kCorrupt);
  fs::remove_all(dir);
}

TEST(ShardIo, DirectoryAtShardPathIsIoError) {
  const fs::path dir = temp_dir();
  const ShardCache cache(dir.string(), 1, 1);
  fs::create_directories(cache.shard_path(0));
  ShardReader reader;
  EXPECT_EQ(reader.open(cache.shard_path(0)), ShardError::kIo);
  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ShardError err = ShardError::kNone;
  EXPECT_NO_THROW(err = ShardReader::read_all(cache.shard_path(0), header, loaded));
  EXPECT_EQ(err, ShardError::kIo);
  // The cache treats it as a miss, so the dataset build regenerates.
  std::vector<ShardRecord> out;
  EXPECT_FALSE(cache.load(0, out));
  fs::remove_all(dir);
}

TEST(ShardIo, EmptyShardRoundTrips) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "empty.dgsh").string();
  ASSERT_TRUE(write_shard(path, 3, 4, 5, {}));
  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ASSERT_EQ(ShardReader::read_all(path, header, loaded), ShardError::kNone);
  EXPECT_EQ(header.num_records, 0U);
  EXPECT_TRUE(loaded.empty());
  fs::remove_all(dir);
}

TEST(ShardIo, CacheRejectsKeyMismatch) {
  const fs::path dir = temp_dir();
  const ShardCache writer(dir.string(), /*config_hash=*/111, /*seed=*/5);
  ASSERT_TRUE(writer.store(0, golden_records()));
  std::vector<ShardRecord> out;
  EXPECT_TRUE(writer.load(0, out));

  // Same directory, different config hash: different file name, so a miss.
  const ShardCache other_cfg(dir.string(), /*config_hash=*/222, /*seed=*/5);
  EXPECT_FALSE(other_cfg.load(0, out));

  // A file renamed over another key's slot is caught by the header check.
  const ShardCache other_seed(dir.string(), /*config_hash=*/111, /*seed=*/6);
  fs::copy_file(writer.shard_path(0), other_seed.shard_path(0));
  EXPECT_FALSE(other_seed.load(0, out));
  fs::remove_all(dir);
}

// -- Golden file: guards the format across code changes ----------------------
//
// tests/data/golden_shard_v1.dgsh was written by this very writer at format
// version 1 and is checked into the repo. If either the byte layout or the
// checksum recipe changes, these tests fail — bump kShardFormatVersion and
// regenerate (run this binary with DG_REGEN_GOLDEN=1) only on purpose.

std::string golden_path() { return std::string(DG_TEST_DATA_DIR) + "/golden_shard_v1.dgsh"; }

TEST(ShardIoGolden, GoldenFileParsesToKnownContent) {
  if (std::getenv("DG_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(
        write_shard(golden_path(), kGoldenHash, kGoldenSeed, kGoldenIndex, golden_records()));
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ASSERT_EQ(ShardReader::read_all(golden_path(), header, loaded), ShardError::kNone)
      << "golden file missing or unreadable: " << golden_path();
  EXPECT_EQ(header.config_hash, kGoldenHash);
  EXPECT_EQ(header.seed, kGoldenSeed);
  EXPECT_EQ(header.shard_index, kGoldenIndex);
  expect_records_equal(golden_records(), loaded);
}

// -- ShardStream --------------------------------------------------------------

/// Three distinct single-record shards; returns their paths.
std::vector<std::string> make_shard_trio(const fs::path& dir) {
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 3; ++i) {
    gnn::CircuitGraph g = golden_graph_a();
    g.labels[0] = 0.125F * static_cast<float>(i + 1);  // tell shards apart
    g.finalize(g.pe_L);
    const fs::path path = dir / ("stream_shard_" + std::to_string(i) + ".dgsh");
    EXPECT_TRUE(write_shard(path.string(), 9, 9, i, {{g, {"EPFL", 5, 3}}}));
    paths.push_back(path.string());
  }
  return paths;
}

std::vector<std::vector<gnn::CircuitGraph>> drain_epochs(ShardStream& stream, int epochs) {
  std::vector<std::vector<gnn::CircuitGraph>> chunks;
  for (int e = 0; e < epochs; ++e) {
    if (e > 0) stream.reset();
    std::vector<gnn::CircuitGraph> chunk;
    while (stream.next(chunk)) chunks.push_back(chunk);
  }
  return chunks;
}

TEST(ShardStream, ReplaysEpochsAndSkipsCorruptShards) {
  const fs::path dir = temp_dir();
  auto paths = make_shard_trio(dir);

  // Every epoch reads each shard from disk and delivers the same sequence.
  ShardStream stream(paths);
  const auto chunks = drain_epochs(stream, 2);
  ASSERT_EQ(chunks.size(), 6u);
  for (std::size_t c = 0; c < 3; ++c) {
    ASSERT_EQ(chunks[c + 3].size(), chunks[c].size());
    for (std::size_t i = 0; i < chunks[c].size(); ++i)
      EXPECT_TRUE(gnn::bit_equal(chunks[c + 3][i], chunks[c][i])) << "chunk " << c;
  }
  EXPECT_EQ(stream.disk_loads(), 6u);

  // Corrupt the middle shard's payload: it is skipped with a warning.
  auto bytes = read_file(paths[1]);
  bytes[bytes.size() / 2] ^= 0xFF;
  write_file(paths[1], bytes);
  ShardStream skipping(paths);
  std::vector<gnn::CircuitGraph> chunk;
  int delivered = 0;
  while (skipping.next(chunk)) ++delivered;
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(skipping.disk_loads(), 2u);
  fs::remove_all(dir);
}

TEST(ShardIoGolden, WriterReproducesGoldenBytes) {
  if (std::getenv("DG_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  const fs::path dir = temp_dir();
  const std::string path = (dir / "rewrite.dgsh").string();
  ASSERT_TRUE(write_shard(path, kGoldenHash, kGoldenSeed, kGoldenIndex, golden_records()));
  const auto expected = read_file(golden_path());
  const auto actual = read_file(path);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual, expected) << "writer output drifted from the v1 golden bytes";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dg::data
