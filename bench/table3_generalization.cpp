// Reproduces Table III: generalization to five designs far larger than any
// training circuit. DeepGate (attention + skip connections) is compared with
// the strongest baseline, DAG-RecGNN + DeepSet ("DeepSet" in the paper).
//
// Paper values:
//   Arbiter    23.7K/173  DeepSet 0.0277  DeepGate 0.0073  (-73.56%)
//   Squarer    36.0K/373  DeepSet 0.0495  DeepGate 0.0346  (-30.16%)
//   Multiplier 47.3K/521  DeepSet 0.0220  DeepGate 0.0159  (-27.94%)
//   80386      13.2K/122  DeepSet 0.0534  DeepGate 0.0387  (-27.56%)
//   Viper      40.5K/133  DeepSet 0.0520  DeepGate 0.0389  (-25.18%)
//
// The shape to reproduce: DeepGate wins everywhere, with the largest margin
// on the reconvergence-dominated Arbiter.
#include "harness.hpp"

#include "data/generators_large.hpp"

int main() {
  using namespace dg;
  bench::Context ctx = bench::make_context();
  bench::print_banner("Table III: generalization to large circuits", ctx);

  std::vector<gnn::CircuitGraph> train_set, test_set;
  bench::build_split(ctx, train_set, test_set);

  // Train both contenders on the small sub-circuits only.
  gnn::ModelSpec deepset_spec{gnn::ModelFamily::kDagRec, gnn::AggKind::kDeepSet, false};
  gnn::ModelSpec deepgate_spec{gnn::ModelFamily::kDeepGate, gnn::AggKind::kAttention, true};
  auto deepset = gnn::make_model(deepset_spec, ctx.model);
  auto deepgate_model = gnn::make_model(deepgate_spec, ctx.model);
  std::printf("training DeepSet (DAG-RecGNN + DeepSet)...\n");
  gnn::train(*deepset, train_set, ctx.train_config());
  std::printf("training DeepGate (Attention w/ SC)...\n");
  gnn::train(*deepgate_model, train_set, ctx.train_config());

  // Held-out evaluation is served batched (node-budgeted merged forwards,
  // pool fan-out); bit-exact with the per-graph loop it replaces.
  const gnn::ServeOptions eval_opts{};
  std::printf("held-out sub-circuit error: DeepSet %.4f, DeepGate %.4f (batched eval, "
              "budget %zu)\n\n",
              gnn::evaluate(*deepset, test_set, eval_opts),
              gnn::evaluate(*deepgate_model, test_set, eval_opts), eval_opts.node_budget);

  const std::size_t patterns = ctx.scale == util::BenchScale::kPaper ? 100000 : 50000;
  util::TextTable table(
      {"Design", "#Nodes", "Levels", "DeepSet", "DeepGate", "Reduction", "Paper red."});
  const char* paper_reduction[] = {"73.56%", "30.16%", "27.94%", "27.56%", "25.18%"};
  int row_idx = 0;
  for (auto& design : data::table3_designs(ctx.scale)) {
    util::Timer timer;
    const gnn::CircuitGraph g =
        data::graph_from_aig(design.aig, patterns, ctx.seed + 31 + row_idx);
    const double e_deepset = gnn::evaluate(*deepset, {g});
    const double e_deepgate = gnn::evaluate(*deepgate_model, {g});
    const double reduction = 100.0 * (1.0 - e_deepgate / std::max(e_deepset, 1e-12));
    table.add_row({design.name, util::fmt_kilo(static_cast<std::size_t>(g.num_nodes)),
                   std::to_string(g.num_levels - 1), util::fmt_fixed(e_deepset, 4),
                   util::fmt_fixed(e_deepgate, 4), util::fmt_fixed(reduction, 2) + "%",
                   paper_reduction[row_idx]});
    util::log_info(design.name, ": ", g.num_nodes, " nodes, ",
                   util::fmt_fixed(timer.seconds(), 1), "s");
    ++row_idx;
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
