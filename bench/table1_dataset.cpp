// Reproduces Table I: "The statistics of circuit training dataset" —
// number of extracted sub-circuits plus node and level ranges per benchmark
// family. Paper values (at DEEPGATE_SCALE=paper the counts match exactly):
//
//   EPFL       828   [52-341]    [4-17]
//   ITC99      7,560 [36-1,947]  [3-23]
//   IWLS       1,281 [41-2,268]  [5-24]
//   Opencores  1,155 [51-3,214]  [4-18]
//   Total      10,824 [36-3,214] [3-24]
#include "harness.hpp"

int main() {
  using namespace dg;
  bench::Context ctx = bench::make_context();
  bench::print_banner("Table I: circuit training dataset statistics", ctx);

  util::Timer timer;
  const data::DatasetConfig cfg = data::default_dataset_config(ctx.scale, ctx.seed);
  const data::Dataset ds = data::build_dataset(cfg);
  const auto stats = data::dataset_stats(ds);

  util::TextTable table({"Benchmark", "#Subcircuits", "#Node", "#Level"});
  std::size_t total = 0, min_n = SIZE_MAX, max_n = 0;
  int min_l = INT_MAX, max_l = 0;
  const auto range = [](auto lo, auto hi) {
    return std::string("[").append(std::to_string(lo)).append("-").append(std::to_string(hi))
        .append("]");
  };
  for (const auto& s : stats) {
    table.add_row({s.family, std::to_string(s.count), range(s.min_nodes, s.max_nodes),
                   range(s.min_level, s.max_level)});
    total += s.count;
    min_n = std::min(min_n, s.min_nodes);
    max_n = std::max(max_n, s.max_nodes);
    min_l = std::min(min_l, s.min_level);
    max_l = std::max(max_l, s.max_level);
  }
  table.add_rule();
  table.add_row({"Total", std::to_string(total),
                 "[" + std::to_string(min_n) + "-" + std::to_string(max_n) + "]",
                 "[" + std::to_string(min_l) + "-" + std::to_string(max_l) + "]"});
  std::printf("%s\n", table.render().c_str());
  std::printf("paper (full scale): EPFL 828 [52-341][4-17], ITC99 7560 [36-1947][3-23], "
              "IWLS 1281 [41-2268][5-24], Opencores 1155 [51-3214][4-18]\n");
  std::printf("elapsed: %.1fs\n", timer.seconds());
  return 0;
}
