// Signal-probability estimation — the supervision task of DeepGate
// (Sec. III-B): the probability of each node being logic '1' under uniform
// random inputs, estimated with up to 100k random patterns (or computed
// exactly by exhaustive enumeration on small-input circuits).
//
// Every estimator counts ones in integers, so its result is bit-identical at
// every DEEPGATE_THREADS value and on either popcount path, and equal to one
// bitsim.hpp simulate_* call per 64-pattern block. Monte-Carlo input words
// are drawn block-major from one util::Rng(seed): block 0's word for every
// input in input order, then block 1's, and so on; the last block counts
// only its num_patterns % 64 valid lanes when that is nonzero.
#pragma once

#include "aig/aig.hpp"
#include "aig/gate_graph.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <vector>

namespace dg::sim {

/// Monte-Carlo probability per AIG variable.
std::vector<double> aig_probabilities(const aig::Aig& aig, std::size_t num_patterns,
                                      std::uint64_t seed);

/// Monte-Carlo probability per gate-graph node (the GNN's training labels).
std::vector<double> gate_graph_probabilities(const aig::GateGraph& g, std::size_t num_patterns,
                                             std::uint64_t seed);

/// Monte-Carlo probability per netlist gate.
std::vector<double> netlist_probabilities(const netlist::Netlist& nl, std::size_t num_patterns,
                                          std::uint64_t seed);

/// Exact probability per AIG variable by exhaustive simulation. Requires
/// num_inputs <= 24 (2^24 patterns); throws std::invalid_argument otherwise.
std::vector<double> exact_aig_probabilities(const aig::Aig& aig);

/// Exact probability per gate-graph node, same input bound.
std::vector<double> exact_gate_graph_probabilities(const aig::GateGraph& g);

namespace detail {

/// Which instantiation of the blocked counting core an estimator runs.
/// kNative is what the estimators above run: the target("popcnt") one
/// where CPUID reports POPCNT, else the portable one. kPortable is the
/// std::popcount one on any CPU. A test seam, so that x86 test hosts also
/// run the driver that only CPUs without POPCNT select; nothing outside
/// the tests picks it.
enum class CountDriver { kNative, kPortable };

std::vector<double> aig_probabilities(const aig::Aig& aig, std::size_t num_patterns,
                                      std::uint64_t seed, CountDriver driver);
std::vector<double> gate_graph_probabilities(const aig::GateGraph& g, std::size_t num_patterns,
                                             std::uint64_t seed, CountDriver driver);
std::vector<double> netlist_probabilities(const netlist::Netlist& nl, std::size_t num_patterns,
                                          std::uint64_t seed, CountDriver driver);
std::vector<double> exact_aig_probabilities(const aig::Aig& aig, CountDriver driver);
std::vector<double> exact_gate_graph_probabilities(const aig::GateGraph& g, CountDriver driver);

}  // namespace detail

}  // namespace dg::sim
