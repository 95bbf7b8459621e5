#include "sim/probability.hpp"

#include "sim/patterns.hpp"
#include "sim/popcount.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace dg::sim {
namespace {

// One blocked core serves every estimator. The 64-pattern blocks are taken
// in groups of kWords consecutive blocks; a pass over the circuit simulates
// a whole group, node by node in topological order, into a node-major
// N x kWords word buffer that each pool chunk reuses for every group it
// owns. Each node's ones under the group's lane masks are
// added straight into the chunk's integer counts. Padding words past the
// last block get mask 0, so the inner loops always run kWords wide.
//
// The ones are counted by the POPCNT instruction where CPUID reports it:
// each chunk then runs the core's target("popcnt") instantiation, into which
// the hardware count inlines; other CPUs, and non-x86 builds, which compile
// only this path, run the std::popcount instantiation (sim/popcount.hpp). No TU
// is built with an ISA flag.
//
// Groups are split over the DEEPGATE_THREADS pool in fixed chunks, and the
// per-chunk counts are integers reduced in chunk order, so the estimates are
// bit-identical at every thread count (1 never touches the pool). The
// Monte-Carlo input words come block-major from one util::Rng(seed): block
// 0's word for every input, then block 1's, and so on. Blocking and the
// popcount path change no count, so every estimate equals one simulate_*
// call per 64-pattern block (bitsim.hpp).

/// 64-pattern words simulated per node per pass.
constexpr std::size_t kWords = 8;
using Group = std::array<std::uint64_t, kWords>;

// Circuit forms. Each lists its input nodes in input order and evaluates
// one non-input node's kWords words in the node-major buffer from its
// fanins' words, exactly as its per-word simulate_* counterpart does.

struct GateGraphForm {
  const aig::GateGraph& g;

  std::size_t size() const { return g.size(); }
  std::vector<std::size_t> inputs() const {
    std::vector<std::size_t> pis;
    for (std::size_t v = 0; v < g.size(); ++v)
      if (g.kind[v] == aig::GateKind::kPi) pis.push_back(v);
    return pis;
  }
  void eval(std::size_t v, std::uint64_t* words) const {
    if (g.kind[v] == aig::GateKind::kPi) return;
    std::uint64_t* out = words + v * kWords;
    const std::uint64_t* a = words + static_cast<std::size_t>(g.fanin[v][0]) * kWords;
    if (g.kind[v] == aig::GateKind::kNot) {
      for (std::size_t k = 0; k < kWords; ++k) out[k] = ~a[k];
      return;
    }
    const std::uint64_t* b = words + static_cast<std::size_t>(g.fanin[v][1]) * kWords;
    for (std::size_t k = 0; k < kWords; ++k) out[k] = a[k] & b[k];
  }
};

/// Var 0 (constant 0) keeps the zeros its buffer starts with.
struct AigForm {
  const aig::Aig& aig;

  std::size_t size() const { return aig.num_vars(); }
  std::vector<std::size_t> inputs() const {
    return std::vector<std::size_t>(aig.inputs().begin(), aig.inputs().end());
  }
  void eval(std::size_t v, std::uint64_t* words) const {
    const aig::Var var = static_cast<aig::Var>(v);
    if (!aig.is_and(var)) return;
    const aig::Lit l0 = aig.fanin0(var);
    const aig::Lit l1 = aig.fanin1(var);
    const std::uint64_t* a = words + static_cast<std::size_t>(aig::lit_var(l0)) * kWords;
    const std::uint64_t* b = words + static_cast<std::size_t>(aig::lit_var(l1)) * kWords;
    const std::uint64_t na = aig::lit_neg(l0) ? ~0ULL : 0ULL;
    const std::uint64_t nb = aig::lit_neg(l1) ? ~0ULL : 0ULL;
    std::uint64_t* out = words + v * kWords;
    for (std::size_t k = 0; k < kWords; ++k) out[k] = (a[k] ^ na) & (b[k] ^ nb);
  }
};

/// One word loop per gate type, as netlist::eval_gate_words evaluates it.
struct NetlistForm {
  const netlist::Netlist& nl;

  std::size_t size() const { return nl.size(); }
  std::vector<std::size_t> inputs() const {
    return std::vector<std::size_t>(nl.inputs().begin(), nl.inputs().end());
  }
  void eval(std::size_t v, std::uint64_t* words) const {
    using netlist::GateType;
    const netlist::Gate& gate = nl.gate(static_cast<int>(v));
    std::uint64_t* out = words + v * kWords;
    const auto fanin = [&](int f) { return words + static_cast<std::size_t>(f) * kWords; };
    const auto fold = [&](std::uint64_t init, auto op, bool invert) {
      Group acc;
      acc.fill(init);
      for (int f : gate.fanins) {
        const std::uint64_t* w = fanin(f);
        for (std::size_t k = 0; k < kWords; ++k) acc[k] = op(acc[k], w[k]);
      }
      const std::uint64_t flip = invert ? ~0ULL : 0ULL;
      for (std::size_t k = 0; k < kWords; ++k) out[k] = acc[k] ^ flip;
    };
    switch (gate.type) {
      case GateType::kInput:
        return;
      case GateType::kBuf:
      case GateType::kNot: {
        const std::uint64_t* a = fanin(gate.fanins[0]);
        const std::uint64_t flip = gate.type == GateType::kNot ? ~0ULL : 0ULL;
        for (std::size_t k = 0; k < kWords; ++k) out[k] = a[k] ^ flip;
        return;
      }
      case GateType::kAnd:
      case GateType::kNand:
        return fold(~0ULL, [](std::uint64_t x, std::uint64_t y) { return x & y; },
                    gate.type == GateType::kNand);
      case GateType::kOr:
      case GateType::kNor:
        return fold(0ULL, [](std::uint64_t x, std::uint64_t y) { return x | y; },
                    gate.type == GateType::kNor);
      case GateType::kXor:
      case GateType::kXnor:
        return fold(0ULL, [](std::uint64_t x, std::uint64_t y) { return x ^ y; },
                    gate.type == GateType::kXnor);
    }
  }
};

struct PortableCount {
  static int ones(std::uint64_t w) { return std::popcount(w); }
};

/// Simulate groups [g0, g1) of one chunk. fill(group, words, mask) writes
/// the input nodes' words of the group and each word's mask of valid
/// lanes; it is called once per group, in order. Inlined into each popcount
/// path's caller in estimate().
template <class Count, class Form, class Fill>
[[gnu::always_inline]] inline void count_groups(const Form& form, Fill& fill, std::int64_t g0,
                                                std::int64_t g1, std::uint64_t* words,
                                                std::uint64_t* ones) {
  const std::size_t n = form.size();
  Group mask{};
  for (std::int64_t grp = g0; grp < g1; ++grp) {
    fill(static_cast<std::uint64_t>(grp), words, mask);
    for (std::size_t v = 0; v < n; ++v) {
      form.eval(v, words);
      const std::uint64_t* w = words + v * kWords;
      std::uint64_t c = 0;
      for (std::size_t k = 0; k < kWords; ++k)
        c += static_cast<std::uint64_t>(Count::ones(w[k] & mask[k]));
      ones[v] += c;
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)
struct HardwareCount {
  [[gnu::target("popcnt")]] static int ones(std::uint64_t w) {
    return detail::hardware_popcount(w);
  }
};

template <class Form, class Fill>
[[gnu::target("popcnt")]] void count_groups_popcnt(const Form& form, Fill& fill, std::int64_t g0,
                                                   std::int64_t g1, std::uint64_t* words,
                                                   std::uint64_t* ones) {
  count_groups<HardwareCount>(form, fill, g0, g1, words, ones);
}
#endif

/// Run the blocked core over `groups` groups and divide each node's ones by
/// `total` patterns. make_fill(g0) returns the fill of the chunk whose
/// first group is g0. Every chunk's word buffer and counts are allocated
/// here, on the calling thread, so the pool workers' heaps do not grow by
/// a buffer that the caller's heap can reuse after the call.
template <class Form, class MakeFill>
std::vector<double> estimate(const Form& form, std::uint64_t groups, std::uint64_t total,
                             const MakeFill& make_fill, detail::CountDriver driver) {
  const std::size_t n = form.size();
  util::ThreadPool& pool = util::global_pool();
  const int chunks = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(pool.num_threads()), groups));
  std::vector<std::uint64_t> words(static_cast<std::size_t>(chunks) * n * kWords, 0);
  std::vector<std::uint64_t> ones(static_cast<std::size_t>(chunks) * n, 0);
  util::parallel_for_chunked(
      pool, static_cast<std::int64_t>(groups), chunks,
      [&](int chunk, std::int64_t g0, std::int64_t g1) {
        auto fill = make_fill(static_cast<std::uint64_t>(g0));
        std::uint64_t* chunk_words = words.data() + static_cast<std::size_t>(chunk) * n * kWords;
        std::uint64_t* chunk_ones = ones.data() + static_cast<std::size_t>(chunk) * n;
#if defined(__x86_64__) || defined(__i386__)
        if (driver == detail::CountDriver::kNative && detail::has_hardware_popcount())
          return count_groups_popcnt(form, fill, g0, g1, chunk_words, chunk_ones);
#endif
        count_groups<PortableCount>(form, fill, g0, g1, chunk_words, chunk_ones);
      });
  std::vector<double> prob(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t sum = 0;
    for (int c = 0; c < chunks; ++c) sum += ones[static_cast<std::size_t>(c) * n + v];
    prob[v] = static_cast<double>(sum) / static_cast<double>(total);
  }
  return prob;
}

template <class Form>
std::vector<double> monte_carlo(const Form& form, std::size_t num_patterns, std::uint64_t seed,
                                detail::CountDriver driver) {
  const std::size_t n = form.size();
  if (num_patterns == 0) return std::vector<double>(n, 0.0);
  const std::vector<std::size_t> inputs = form.inputs();
  const std::uint64_t blocks = (num_patterns + 63) / 64;
  const std::uint64_t groups = (blocks + kWords - 1) / kWords;
  const std::uint64_t last_mask = lane_mask(num_patterns - (blocks - 1) * 64);
  // Each chunk draws its own blocks' words as it goes, from a copy of the
  // stream advanced past the blocks of the chunks before it.
  const auto make_fill = [&](std::uint64_t g0) {
    util::Rng rng(seed);
    for (std::uint64_t d = g0 * kWords * inputs.size(); d > 0; --d) (void)rng.next_u64();
    return [&, rng](std::uint64_t grp, std::uint64_t* words, Group& mask) mutable {
      for (std::size_t k = 0; k < kWords; ++k) {
        const std::uint64_t b = grp * kWords + k;
        for (const std::size_t v : inputs) words[v * kWords + k] = b < blocks ? rng.next_u64() : 0;
        mask[k] = b + 1 < blocks ? ~0ULL : b + 1 == blocks ? last_mask : 0ULL;
      }
    };
  };
  return estimate(form, groups, num_patterns, make_fill, driver);
}

template <class Form>
std::vector<double> exhaustive(const Form& form, detail::CountDriver driver) {
  const std::vector<std::size_t> inputs = form.inputs();
  const std::size_t num_inputs = inputs.size();
  if (num_inputs > 24)
    throw std::invalid_argument("exact probabilities limited to 24 inputs");
  const std::uint64_t blocks = exhaustive_blocks(num_inputs);
  const std::uint64_t groups = (blocks + kWords - 1) / kWords;
  const std::uint64_t total = num_inputs >= 6 ? (blocks << 6) : (1ULL << num_inputs);
  const std::uint64_t block_mask = lane_mask(num_inputs >= 6 ? 64 : (1ULL << num_inputs));
  const auto fill = [&](std::uint64_t grp, std::uint64_t* words, Group& mask) {
    for (std::size_t i = 0; i < num_inputs; ++i)
      for (std::size_t k = 0; k < kWords; ++k)
        words[inputs[i] * kWords + k] = exhaustive_word(i, grp * kWords + k);
    for (std::size_t k = 0; k < kWords; ++k)
      mask[k] = grp * kWords + k < blocks ? block_mask : 0ULL;
  };
  return estimate(form, groups, total, [&](std::uint64_t) { return fill; }, driver);
}

}  // namespace

namespace detail {

std::vector<double> aig_probabilities(const aig::Aig& aig, std::size_t num_patterns,
                                      std::uint64_t seed, CountDriver driver) {
  return monte_carlo(AigForm{aig}, num_patterns, seed, driver);
}

std::vector<double> gate_graph_probabilities(const aig::GateGraph& g, std::size_t num_patterns,
                                             std::uint64_t seed, CountDriver driver) {
  return monte_carlo(GateGraphForm{g}, num_patterns, seed, driver);
}

std::vector<double> netlist_probabilities(const netlist::Netlist& nl, std::size_t num_patterns,
                                          std::uint64_t seed, CountDriver driver) {
  return monte_carlo(NetlistForm{nl}, num_patterns, seed, driver);
}

std::vector<double> exact_aig_probabilities(const aig::Aig& aig, CountDriver driver) {
  return exhaustive(AigForm{aig}, driver);
}

std::vector<double> exact_gate_graph_probabilities(const aig::GateGraph& g, CountDriver driver) {
  return exhaustive(GateGraphForm{g}, driver);
}

}  // namespace detail

std::vector<double> aig_probabilities(const aig::Aig& aig, std::size_t num_patterns,
                                      std::uint64_t seed) {
  return detail::aig_probabilities(aig, num_patterns, seed, detail::CountDriver::kNative);
}

std::vector<double> gate_graph_probabilities(const aig::GateGraph& g, std::size_t num_patterns,
                                             std::uint64_t seed) {
  return detail::gate_graph_probabilities(g, num_patterns, seed, detail::CountDriver::kNative);
}

std::vector<double> netlist_probabilities(const netlist::Netlist& nl, std::size_t num_patterns,
                                          std::uint64_t seed) {
  return detail::netlist_probabilities(nl, num_patterns, seed, detail::CountDriver::kNative);
}

std::vector<double> exact_aig_probabilities(const aig::Aig& aig) {
  return detail::exact_aig_probabilities(aig, detail::CountDriver::kNative);
}

std::vector<double> exact_gate_graph_probabilities(const aig::GateGraph& g) {
  return detail::exact_gate_graph_probabilities(g, detail::CountDriver::kNative);
}

}  // namespace dg::sim
