// 64-way bit-parallel logic simulation over the three circuit forms (AIG,
// explicit gate graph, generic netlist). One call evaluates 64 patterns, one
// word per node. These per-word functions are the reference oracle of the
// probability estimators (probability.hpp): those run a blocked driver that
// simulates 8 consecutive 64-pattern words per node per pass and counts ones
// with the CPU's popcount instruction where it has one (sim/popcount.hpp),
// and every estimate must equal one call here per 64-pattern block, bit for
// bit (tests/probability_test.cpp).
#pragma once

#include "aig/aig.hpp"
#include "aig/gate_graph.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <vector>

namespace dg::sim {

/// Simulate one word per AIG variable. `pi_words[i]` is the word of the i-th
/// primary input. Returns a word per variable (var 0 = constant 0).
std::vector<std::uint64_t> simulate_aig(const aig::Aig& aig,
                                        const std::vector<std::uint64_t>& pi_words);

/// Word of an AIG literal given the per-variable words.
inline std::uint64_t lit_word(const std::vector<std::uint64_t>& var_words, aig::Lit l) {
  const std::uint64_t w = var_words[aig::lit_var(l)];
  return aig::lit_neg(l) ? ~w : w;
}

/// Simulate one word per gate-graph node.
std::vector<std::uint64_t> simulate_gate_graph(const aig::GateGraph& g,
                                               const std::vector<std::uint64_t>& pi_words);

/// Simulate one word per netlist gate.
std::vector<std::uint64_t> simulate_netlist(const netlist::Netlist& nl,
                                            const std::vector<std::uint64_t>& pi_words);

}  // namespace dg::sim
