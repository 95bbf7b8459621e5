// Dataset-preparation microbenchmark: serial vs sharded-parallel cold builds
// and cold vs warm shard-cache runs, with the determinism contract checked on
// every pair (all runs must produce bit-identical graphs).
//
// Honors --json out.json / DEEPGATE_BENCH_JSON for the perf-trajectory CI
// (BENCH_micro_dataset.json artifact).
#include "harness.hpp"

#include "util/hash.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace {

bool datasets_bit_equal(const dg::data::Dataset& a, const dg::data::Dataset& b) {
  if (a.graphs.size() != b.graphs.size()) return false;
  for (std::size_t i = 0; i < a.graphs.size(); ++i) {
    if (!dg::gnn::bit_equal(a.graphs[i], b.graphs[i])) return false;
    if (a.info[i].family != b.info[i].family) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dg;
  bench::Context ctx = bench::make_context(argc, argv);
  bench::print_banner("micro_dataset: sharded preparation + shard cache", ctx);

  data::DatasetConfig cfg = data::default_dataset_config(ctx.scale, ctx.seed);
  // Always exercise the sharded fan-out with at least 4 lanes, even when the
  // host reports fewer cores (oversubscription is roughly neutral there).
  const int parallel_threads = std::clamp(util::default_num_threads(), 4, 8);

  util::TextTable table({"run", "threads", "seconds", "speedup"});
  std::vector<bench::JsonRecord> records;
  const auto record = [&](const char* name, int threads, double seconds, double base) {
    table.add_row({name, std::to_string(threads), util::fmt_fixed(seconds, 3),
                   util::fmt_fixed(base / seconds, 2) + "x"});
    records.push_back(bench::JsonRecord{}
                          .str("run", name)
                          .num("threads", threads)
                          .num("seconds", seconds)
                          .num("speedup", base / seconds));
  };

  // -- Cold, serial (no cache): the pre-sharding baseline --------------------
  util::set_global_threads(1);
  data::BuildOptions no_cache;
  util::Timer t_serial;
  const data::Dataset serial = data::build_dataset(cfg, no_cache);
  const double serial_secs = t_serial.seconds();
  record("cold_serial", 1, serial_secs, serial_secs);
  std::printf("dataset: %zu circuits\n", serial.graphs.size());

  // -- Cold, parallel (cache writes included) --------------------------------
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("dg_micro_dataset_" + std::to_string(util::fnv1a_bytes(&ctx.seed, sizeof(ctx.seed)))))
          .string();
  std::filesystem::remove_all(cache_dir);
  data::BuildOptions cached;
  cached.cache_dir = cache_dir;

  util::set_global_threads(parallel_threads);
  util::Timer t_parallel;
  const data::Dataset parallel = data::build_dataset(cfg, cached);
  const double parallel_secs = t_parallel.seconds();
  record("cold_parallel", parallel_threads, parallel_secs, serial_secs);

  if (!datasets_bit_equal(serial, parallel)) {
    std::fprintf(stderr, "FAIL: parallel build not bit-identical to serial build\n");
    return 1;
  }

  // -- Warm cache: everything streams back from disk -------------------------
  util::Timer t_warm;
  const data::Dataset warm = data::build_dataset(cfg, cached);
  const double warm_secs = t_warm.seconds();
  record("warm_cache", parallel_threads, warm_secs, parallel_secs);

  if (!datasets_bit_equal(parallel, warm)) {
    std::fprintf(stderr, "FAIL: warm cache run not bit-identical to cold run\n");
    return 1;
  }
  std::filesystem::remove_all(cache_dir);

  std::printf("\n%s\n", table.render().c_str());
  std::printf("parallel cold speedup: %.2fx   warm cache speedup: %.2fx\n",
              serial_secs / parallel_secs, parallel_secs / warm_secs);
  if (!bench::write_json_report(ctx, "micro_dataset", records)) return 1;
  if (!ctx.json_path.empty()) std::printf("json report: %s\n", ctx.json_path.c_str());
  return 0;
}
