// Signal-probability estimation: Monte-Carlo must converge to the exact
// (exhaustive) values, which are themselves verified against hand-computed
// probabilities on canonical structures. Every estimator must equal, bit
// for bit, one per-word simulate_* call per 64-pattern block.
#include "sim/probability.hpp"

#include "aig/gate_graph.hpp"
#include "data/generators_small.hpp"
#include "netlist/to_aig.hpp"
#include "sim/bitsim.hpp"
#include "sim/patterns.hpp"
#include "sim/popcount.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

namespace dg::sim {
namespace {

using namespace dg::aig;

TEST(Probability, SingleAndGateExact) {
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  const Lit f = a.add_and(x, y);
  a.add_output(f);
  const auto p = exact_aig_probabilities(a);
  EXPECT_DOUBLE_EQ(p[lit_var(x)], 0.5);
  EXPECT_DOUBLE_EQ(p[lit_var(f)], 0.25);
}

TEST(Probability, XorIsHalf) {
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  const Lit f = a.make_xor(x, y);
  a.add_output(f);
  const auto p = exact_aig_probabilities(a);
  EXPECT_DOUBLE_EQ(p[lit_var(f)], 0.5);
}

TEST(Probability, DeepAndChainHalves) {
  // AND of k independent inputs has probability 2^-k.
  Aig a;
  std::vector<Lit> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(make_lit(a.add_input(), false));
  const Lit f = a.make_and_n(ins);
  a.add_output(f);
  const auto p = exact_aig_probabilities(a);
  EXPECT_DOUBLE_EQ(p[lit_var(f)], 1.0 / 32.0);
}

TEST(Probability, ReconvergenceBreaksIndependence) {
  // f = x & !x through two paths would be 0.25 under independence but is
  // exactly 0 — the paper's core motivation for simulation-based labels.
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  const Lit n1 = a.add_and(x, y);
  const Lit n2 = a.add_and(lit_not(x), y);
  // OR of two mutually exclusive terms: p = p1 + p2 exactly.
  const Lit f = a.make_or(n1, n2);
  a.add_output(f);
  const auto p = exact_aig_probabilities(a);
  EXPECT_DOUBLE_EQ(p[lit_var(f)], 0.5);  // = P(y)
}

TEST(Probability, MonteCarloConvergesToExact) {
  // A 16-input random structure small enough for exhaustive enumeration.
  util::Rng rng(5);
  Aig a;
  std::vector<Lit> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(make_lit(a.add_input(), false));
  for (int i = 0; i < 60; ++i) {
    const Lit p = pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    Lit q = pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    if (rng.next_bool()) q = lit_not(q);
    const Lit n = a.add_and(p, q);
    if (a.is_and(lit_var(n))) pool.push_back(n);
  }
  a.add_output(pool.back());
  const auto exact = exact_aig_probabilities(a);
  const auto mc = aig_probabilities(a, 200000, 99);
  double max_err = 0.0;
  for (std::size_t v = 0; v < exact.size(); ++v)
    max_err = std::max(max_err, std::abs(exact[v] - mc[v]));
  EXPECT_LT(max_err, 0.01);
}

TEST(Probability, MoreSamplesReduceError) {
  Aig a;
  std::vector<Lit> ins;
  for (int i = 0; i < 10; ++i) ins.push_back(make_lit(a.add_input(), false));
  a.add_output(a.make_and_n(ins));
  const auto exact = exact_aig_probabilities(a);

  auto rms = [&](std::size_t patterns) {
    const auto mc = aig_probabilities(a, patterns, 7);
    double acc = 0.0;
    for (std::size_t v = 1; v < exact.size(); ++v) {
      const double e = exact[v] - mc[v];
      acc += e * e;
    }
    return std::sqrt(acc / static_cast<double>(exact.size() - 1));
  };
  EXPECT_LT(rms(100000), rms(1000) + 1e-12);
}

TEST(Probability, GateGraphLabelsMatchAig) {
  util::Rng rng(6);
  const Aig a = netlist::to_aig(data::gen_opencores_like(rng));
  const GateGraph g = to_gate_graph(a);
  const auto pa = aig_probabilities(a, 50000, 11);
  const auto pg = gate_graph_probabilities(g, 50000, 11);
  // Output nodes must match between representations (same seed & patterns).
  for (std::size_t o = 0; o < a.num_outputs(); ++o) {
    const Lit ol = a.outputs()[o];
    double ap = pa[lit_var(ol)];
    if (lit_neg(ol)) ap = 1.0 - ap;
    EXPECT_NEAR(ap, pg[static_cast<std::size_t>(g.outputs[o])], 1e-12);
  }
}

TEST(Probability, NetlistGateProbabilities) {
  netlist::Netlist nl;
  const int a = nl.add_input();
  const int b = nl.add_input();
  const int f = nl.add_gate(netlist::GateType::kNor, {a, b});
  nl.mark_output(f);
  const auto p = netlist_probabilities(nl, 100000, 3);
  EXPECT_NEAR(p[static_cast<std::size_t>(f)], 0.25, 0.01);
}

TEST(Probability, ExhaustiveRejectsTooManyInputs) {
  Aig a;
  for (int i = 0; i < 25; ++i) (void)a.add_input();
  a.add_output(make_lit(a.inputs()[0], false));
  EXPECT_THROW(exact_aig_probabilities(a), std::invalid_argument);
}

TEST(Probability, PartialLastBlockHandled) {
  // 70 patterns = one full word + 6 lanes; PI probability should still be
  // close to 0.5 and, critically, never exceed 1.
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  a.add_output(x);
  const auto p = aig_probabilities(a, 70, 13);
  EXPECT_GE(p[lit_var(x)], 0.0);
  EXPECT_LE(p[lit_var(x)], 1.0);
}

TEST(Probability, DeterministicForSeed) {
  util::Rng rng(8);
  const Aig a = netlist::to_aig(data::gen_iwls_like(rng));
  const auto p1 = aig_probabilities(a, 10000, 42);
  const auto p2 = aig_probabilities(a, 10000, 42);
  EXPECT_EQ(p1, p2);
}

// -- Bitwise equality with a per-block reference -------------------------------

/// Divide per-node ones by the pattern count.
std::vector<double> probabilities(const std::vector<std::uint64_t>& ones, std::uint64_t total) {
  std::vector<double> p(ones.size());
  for (std::size_t v = 0; v < ones.size(); ++v)
    p[v] = static_cast<double>(ones[v]) / static_cast<double>(total);
  return p;
}

/// The Monte-Carlo estimate as one simulate(pi_words) call per 64-pattern
/// block: each block draws one word per input from util::Rng(seed), in
/// input order, and the last block counts only its valid lanes.
template <class Simulate>
std::vector<double> monte_carlo_reference(std::size_t num_nodes, std::size_t num_inputs,
                                          std::size_t patterns, std::uint64_t seed,
                                          const Simulate& simulate) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> ones(num_nodes, 0);
  for (std::size_t done = 0; done < patterns; done += 64) {
    std::vector<std::uint64_t> pi(num_inputs);
    for (std::uint64_t& w : pi) w = rng.next_u64();
    const std::vector<std::uint64_t> words = simulate(pi);
    const std::uint64_t mask = lane_mask(std::min<std::size_t>(64, patterns - done));
    for (std::size_t v = 0; v < num_nodes; ++v)
      ones[v] += static_cast<std::uint64_t>(std::popcount(words[v] & mask));
  }
  return probabilities(ones, patterns);
}

/// The exact probabilities as one simulate(pi_words) call per exhaustive
/// block.
template <class Simulate>
std::vector<double> exhaustive_reference(std::size_t num_nodes, std::size_t num_inputs,
                                         const Simulate& simulate) {
  const std::uint64_t blocks = exhaustive_blocks(num_inputs);
  const std::uint64_t lanes = num_inputs >= 6 ? 64 : (1ULL << num_inputs);
  std::vector<std::uint64_t> ones(num_nodes, 0);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    std::vector<std::uint64_t> pi(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) pi[i] = exhaustive_word(i, b);
    const std::vector<std::uint64_t> words = simulate(pi);
    for (std::size_t v = 0; v < num_nodes; ++v)
      ones[v] += static_cast<std::uint64_t>(std::popcount(words[v] & lane_mask(lanes)));
  }
  return probabilities(ones, blocks * lanes);
}

/// A random AIG over `num_inputs` inputs with complemented fanins; every
/// AND is an output, so to_gate_graph keeps it.
Aig random_aig(std::size_t num_inputs, std::uint64_t seed) {
  util::Rng rng(seed);
  Aig a;
  std::vector<Lit> pool;
  for (std::size_t i = 0; i < num_inputs; ++i) pool.push_back(make_lit(a.add_input(), false));
  for (int i = 0; i < 40 && !pool.empty(); ++i) {
    Lit p = pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    Lit q = pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    if (rng.next_bool()) p = lit_not(p);
    if (rng.next_bool()) q = lit_not(q);
    const Lit n = a.add_and(p, q);
    if (a.is_and(lit_var(n))) pool.push_back(n);
  }
  for (const Lit l : pool) a.add_output(l);
  return a;
}

/// A random netlist with every gate type at 1–4 fanins.
netlist::Netlist random_netlist(std::uint64_t seed) {
  using netlist::GateType;
  util::Rng rng(seed);
  netlist::Netlist nl;
  for (int i = 0; i < 12; ++i) (void)nl.add_input();
  const GateType types[] = {GateType::kNot, GateType::kBuf,  GateType::kAnd,
                            GateType::kNand, GateType::kOr,  GateType::kNor,
                            GateType::kXor, GateType::kXnor};
  for (int i = 0; i < 200; ++i) {
    const GateType t = types[rng.next_below(8)];
    const std::size_t arity =
        t == GateType::kNot || t == GateType::kBuf ? 1 : 1 + rng.next_below(4);
    std::vector<int> fanins;
    for (std::size_t k = 0; k < arity; ++k)
      fanins.push_back(static_cast<int>(rng.next_below(nl.size())));
    nl.mark_output(nl.add_gate(t, std::move(fanins)));
  }
  return nl;
}

/// Run `check` at 1, 2 and 4 pool lanes, then restore the default pool.
template <class Check>
void at_each_thread_count(const Check& check) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    util::set_global_threads(threads);
    check();
  }
  util::set_global_threads(util::default_num_threads());
}

// Fewer blocks than one 8-word group, exact and masked tails, one block
// past a group, and the paper's pattern count.
constexpr std::size_t kPatternCounts[] = {1, 63, 64, 65, 511, 512, 513, 100000};

TEST(ProbabilityBitwise, MonteCarloEqualsPerBlockReference) {
  util::Rng rng(21);
  const Aig a = netlist::to_aig(data::gen_opencores_like(rng));
  const GateGraph g = to_gate_graph(a);
  const netlist::Netlist generated = data::gen_iwls_like(rng);
  const netlist::Netlist mixed = random_netlist(22);
  at_each_thread_count([&] {
    for (const std::size_t patterns : kPatternCounts) {
      SCOPED_TRACE(testing::Message() << patterns << " patterns");
      const std::uint64_t seed = 1000 + patterns;
      EXPECT_EQ(aig_probabilities(a, patterns, seed),
                monte_carlo_reference(a.num_vars(), a.num_inputs(), patterns, seed,
                                      [&](const auto& pi) { return simulate_aig(a, pi); }));
      EXPECT_EQ(gate_graph_probabilities(g, patterns, seed),
                monte_carlo_reference(g.size(), a.num_inputs(), patterns, seed,
                                      [&](const auto& pi) { return simulate_gate_graph(g, pi); }));
      for (const netlist::Netlist* nl : {&generated, &mixed})
        EXPECT_EQ(netlist_probabilities(*nl, patterns, seed),
                  monte_carlo_reference(nl->size(), nl->inputs().size(), patterns, seed,
                                        [&](const auto& pi) { return simulate_netlist(*nl, pi); }));
    }
  });
}

TEST(ProbabilityBitwise, ExhaustiveEqualsPerBlockReference) {
  at_each_thread_count([&] {
    for (std::size_t inputs = 0; inputs <= 12; ++inputs) {
      SCOPED_TRACE(testing::Message() << inputs << " inputs");
      const Aig a = random_aig(inputs, 300 + inputs);
      const GateGraph g = to_gate_graph(a);
      EXPECT_EQ(exact_aig_probabilities(a),
                exhaustive_reference(a.num_vars(), inputs,
                                     [&](const auto& pi) { return simulate_aig(a, pi); }));
      EXPECT_EQ(exact_gate_graph_probabilities(g),
                exhaustive_reference(g.size(), inputs,
                                     [&](const auto& pi) { return simulate_gate_graph(g, pi); }));
    }
  });
}

// The portable counting driver runs only on CPUs without POPCNT, so it is
// run here through the detail:: seam on every host and held bitwise to the
// native driver (the POPCNT one where the CPU has it) on all three circuit
// forms, Monte-Carlo and exhaustive.
TEST(ProbabilityBitwise, PortableDriverEqualsNative) {
  using detail::CountDriver;
  // No inputs, fewer than one 64-pattern block, one block, several groups.
  constexpr std::size_t kInputCounts[] = {0, 3, 6, 12};
  util::Rng rng(24);
  const Aig a = netlist::to_aig(data::gen_opencores_like(rng));
  const GateGraph g = to_gate_graph(a);
  const netlist::Netlist mixed = random_netlist(25);
  at_each_thread_count([&] {
    for (const std::size_t patterns : kPatternCounts) {
      SCOPED_TRACE(testing::Message() << patterns << " patterns");
      const std::uint64_t seed = 2000 + patterns;
      EXPECT_EQ(detail::aig_probabilities(a, patterns, seed, CountDriver::kPortable),
                detail::aig_probabilities(a, patterns, seed, CountDriver::kNative));
      EXPECT_EQ(detail::gate_graph_probabilities(g, patterns, seed, CountDriver::kPortable),
                detail::gate_graph_probabilities(g, patterns, seed, CountDriver::kNative));
      EXPECT_EQ(detail::netlist_probabilities(mixed, patterns, seed, CountDriver::kPortable),
                detail::netlist_probabilities(mixed, patterns, seed, CountDriver::kNative));
    }
    for (const std::size_t inputs : kInputCounts) {
      SCOPED_TRACE(testing::Message() << inputs << " inputs");
      const Aig small = random_aig(inputs, 400 + inputs);
      const GateGraph sg = to_gate_graph(small);
      EXPECT_EQ(detail::exact_aig_probabilities(small, CountDriver::kPortable),
                detail::exact_aig_probabilities(small, CountDriver::kNative));
      EXPECT_EQ(detail::exact_gate_graph_probabilities(sg, CountDriver::kPortable),
                detail::exact_gate_graph_probabilities(sg, CountDriver::kNative));
    }
  });
}

TEST(ProbabilityBitwise, HardwarePopcountMatchesPortable) {
#if defined(__x86_64__) || defined(__i386__)
  if (!detail::has_hardware_popcount()) GTEST_SKIP() << "this CPU has no POPCNT";
  util::Rng rng(23);
  for (const std::uint64_t w : {0ULL, ~0ULL, 1ULL, 1ULL << 63})
    EXPECT_EQ(detail::hardware_popcount(w), std::popcount(w)) << w;
  for (int i = 0; i < 100000; ++i) {
    // Sparse and dense words as well as uniform ones.
    const std::uint64_t u = rng.next_u64();
    const std::uint64_t w = i % 3 == 0 ? u & rng.next_u64() : i % 3 == 1 ? u | rng.next_u64() : u;
    ASSERT_EQ(detail::hardware_popcount(w), std::popcount(w)) << w;
  }
#else
  GTEST_SKIP() << "only the portable count is built off x86";
#endif
}

}  // namespace
}  // namespace dg::sim
