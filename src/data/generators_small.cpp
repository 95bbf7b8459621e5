#include "data/generators_small.hpp"

#include <cassert>
#include <stdexcept>

namespace dg::data {
namespace {

using netlist::GateType;
using netlist::Netlist;
using util::Rng;

/// Thin builder over Netlist with the combinational idioms the family
/// generators are assembled from.
class NlBuilder {
 public:
  explicit NlBuilder(Rng& rng) : rng_(rng) {}

  Netlist take() { return std::move(nl_); }
  Rng& rng() { return rng_; }

  std::vector<int> inputs(int n, const std::string& prefix = "i") {
    std::vector<int> ids(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = nl_.add_input(prefix + std::to_string(i));
    return ids;
  }
  void output(int g) { nl_.mark_output(g); }
  void outputs(const std::vector<int>& gs) {
    for (int g : gs) nl_.mark_output(g);
  }

  int g2(GateType t, int a, int b) { return nl_.add_gate(t, {a, b}); }
  int gn(GateType t, std::vector<int> fan) { return nl_.add_gate(t, std::move(fan)); }
  int not_(int a) { return nl_.add_gate(GateType::kNot, {a}); }
  int and2(int a, int b) { return g2(GateType::kAnd, a, b); }
  int or2(int a, int b) { return g2(GateType::kOr, a, b); }
  int xor2(int a, int b) { return g2(GateType::kXor, a, b); }
  int nand2(int a, int b) { return g2(GateType::kNand, a, b); }
  int nor2(int a, int b) { return g2(GateType::kNor, a, b); }
  int xnor2(int a, int b) { return g2(GateType::kXnor, a, b); }

  int mux(int s, int t, int e) {
    // s ? t : e = (s AND t) OR (NOT s AND e)
    return or2(and2(s, t), and2(not_(s), e));
  }

  /// {sum, carry} full adder.
  std::pair<int, int> full_adder(int a, int b, int c) {
    const int axb = xor2(a, b);
    const int sum = xor2(axb, c);
    const int carry = or2(and2(a, b), and2(c, axb));
    return {sum, carry};
  }

  /// Ripple adder over equal-width vectors; returns sum bits (LSB first)
  /// plus the final carry appended.
  std::vector<int> ripple_add(const std::vector<int>& a, const std::vector<int>& b) {
    assert(a.size() == b.size() && !a.empty());
    std::vector<int> sum;
    int carry = and2(a[0], b[0]);
    sum.push_back(xor2(a[0], b[0]));
    for (std::size_t i = 1; i < a.size(); ++i) {
      auto [s, c] = full_adder(a[i], b[i], carry);
      sum.push_back(s);
      carry = c;
    }
    sum.push_back(carry);
    return sum;
  }

  /// Balanced reduction with one gate type.
  int tree(GateType t, std::vector<int> xs) {
    assert(!xs.empty());
    while (xs.size() > 1) {
      std::vector<int> next;
      for (std::size_t i = 0; i + 1 < xs.size(); i += 2) next.push_back(g2(t, xs[i], xs[i + 1]));
      if (xs.size() % 2 == 1) next.push_back(xs.back());
      xs = std::move(next);
    }
    return xs[0];
  }

  /// a == b over vectors.
  int equal(const std::vector<int>& a, const std::vector<int>& b) {
    std::vector<int> bits;
    for (std::size_t i = 0; i < a.size(); ++i) bits.push_back(xnor2(a[i], b[i]));
    return tree(GateType::kAnd, std::move(bits));
  }

  /// a < b (unsigned), borrow-chain style.
  int less_than(const std::vector<int>& a, const std::vector<int>& b) {
    int lt = and2(not_(a[0]), b[0]);
    for (std::size_t i = 1; i < a.size(); ++i) {
      const int bit_lt = and2(not_(a[i]), b[i]);
      const int bit_eq = xnor2(a[i], b[i]);
      lt = or2(bit_lt, and2(bit_eq, lt));
    }
    return lt;
  }

  /// One-hot decoder of `sel` (LSB first) -> 2^|sel| lines.
  std::vector<int> decoder(const std::vector<int>& sel) {
    std::vector<int> lines;
    const std::size_t n = 1ULL << sel.size();
    std::vector<int> inv;
    for (int s : sel) inv.push_back(not_(s));
    for (std::size_t code = 0; code < n; ++code) {
      std::vector<int> terms;
      for (std::size_t b = 0; b < sel.size(); ++b)
        terms.push_back((code >> b) & 1 ? sel[b] : inv[b]);
      lines.push_back(terms.size() == 1 ? terms[0] : tree(GateType::kAnd, terms));
    }
    return lines;
  }

  /// Mux tree selecting one of |data| = 2^|sel| signals.
  int mux_tree(const std::vector<int>& sel, std::vector<int> data) {
    assert(data.size() == (1ULL << sel.size()));
    for (std::size_t b = 0; b < sel.size(); ++b) {
      std::vector<int> next;
      for (std::size_t i = 0; i < data.size(); i += 2)
        next.push_back(mux(sel[b], data[i + 1], data[i]));
      data = std::move(next);
    }
    return data[0];
  }

  /// Random sum-of-products plane over `vars` (NAND-NAND realization, the
  /// dominant texture of mapped control logic).
  int sop(const std::vector<int>& vars, int num_products, int literals_per_product) {
    std::vector<int> products;
    for (int p = 0; p < num_products; ++p) {
      std::vector<int> lits;
      for (int l = 0; l < literals_per_product; ++l) {
        int v = vars[static_cast<std::size_t>(rng_.next_below(vars.size()))];
        if (rng_.next_bool()) v = not_(v);
        lits.push_back(v);
      }
      products.push_back(lits.size() == 1 ? not_(lits[0])
                                          : gn(GateType::kNand, std::move(lits)));
    }
    return products.size() == 1 ? not_(products[0]) : gn(GateType::kNand, std::move(products));
  }

  /// Thermometer-masked priority chain: grant[i] = req[i] & none-before.
  std::vector<int> priority_grant(const std::vector<int>& req) {
    std::vector<int> grant;
    grant.push_back(req[0]);
    int seen = req[0];
    for (std::size_t i = 1; i < req.size(); ++i) {
      grant.push_back(and2(req[i], not_(seen)));
      if (i + 1 < req.size()) seen = or2(seen, req[i]);
    }
    return grant;
  }

  /// One CRC round: state' = (state << 1) ^ (poly & msb) ^ data-mix.
  std::vector<int> crc_round(const std::vector<int>& state, const std::vector<int>& data,
                             std::uint64_t poly) {
    const int msb = state.back();
    const int fb = xor2(msb, data[static_cast<std::size_t>(rng_.next_below(data.size()))]);
    std::vector<int> next;
    next.push_back(fb);
    for (std::size_t i = 0; i + 1 < state.size(); ++i) {
      int bit = state[i];
      if ((poly >> (i + 1)) & 1) bit = xor2(bit, fb);
      next.push_back(bit);
    }
    return next;
  }

 private:
  Rng& rng_;
  Netlist nl_;
};

}  // namespace

netlist::Netlist gen_epfl_like(util::Rng& rng) {
  NlBuilder b(rng);
  const int w = static_cast<int>(rng.next_range(8, 48));
  const auto a = b.inputs(w, "a");
  const auto bb = b.inputs(w, "b");
  const auto c = b.inputs(w, "c");

  // Adder chain: (a + b) + c with ripple carries (deep arithmetic texture).
  auto s1 = b.ripple_add(a, bb);
  s1.resize(static_cast<std::size_t>(w));
  auto s2 = b.ripple_add(s1, c);

  // max(a, b): comparator + per-bit mux (reconvergent on the compare).
  const int a_lt_b = b.less_than(a, bb);
  std::vector<int> mx;
  for (int i = 0; i < w; ++i)
    mx.push_back(b.mux(a_lt_b, bb[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(i)]));

  // Small partial-product rows (multiplier texture).
  const int rows = static_cast<int>(rng.next_range(2, 6));
  std::vector<int> acc;
  for (std::size_t i = 0; i < a.size(); ++i) acc.push_back(b.and2(a[i], bb[0]));
  for (int r = 1; r < rows; ++r) {
    std::vector<int> pp;
    for (std::size_t i = 0; i < a.size(); ++i)
      pp.push_back(b.and2(a[i], bb[static_cast<std::size_t>(r)]));
    auto summed = b.ripple_add(acc, pp);
    summed.resize(acc.size());
    acc = std::move(summed);
  }

  b.outputs(s2);
  b.outputs(mx);
  b.outputs(acc);
  b.output(a_lt_b);
  return b.take();
}

netlist::Netlist gen_itc_like(util::Rng& rng) {
  NlBuilder b(rng);
  const int state_bits = static_cast<int>(rng.next_range(8, 24));
  const int input_bits = static_cast<int>(rng.next_range(6, 16));
  const auto st = b.inputs(state_bits, "s");
  const auto in = b.inputs(input_bits, "x");

  std::vector<int> vars = st;
  vars.insert(vars.end(), in.begin(), in.end());

  // Next-state SOP planes — the classic synthesized-FSM texture of ITC'99.
  std::vector<int> next_state;
  for (int k = 0; k < state_bits; ++k) {
    const int products = static_cast<int>(rng.next_range(4, 14));
    const int lits = static_cast<int>(rng.next_range(2, 5));
    next_state.push_back(b.sop(vars, products, lits));
  }

  // Priority-encoded interrupt-style grants over the inputs.
  const auto grants = b.priority_grant(in);

  // Output decode: state comparators driving moore outputs.
  const int num_moore = static_cast<int>(rng.next_range(2, 5));
  std::vector<int> moore;
  for (int k = 0; k < num_moore; ++k) {
    std::vector<int> pattern;
    for (int s : st) pattern.push_back(rng.next_bool() ? s : b.not_(s));
    moore.push_back(b.tree(netlist::GateType::kAnd, pattern));
  }

  b.outputs(next_state);
  b.outputs(grants);
  b.outputs(moore);
  return b.take();
}

netlist::Netlist gen_iwls_like(util::Rng& rng) {
  NlBuilder b(rng);
  const int sel_bits = static_cast<int>(rng.next_range(3, 6));
  const int data_bits = 1 << sel_bits;
  const int words = static_cast<int>(rng.next_range(2, 6));

  const auto sel = b.inputs(sel_bits, "sel");
  std::vector<std::vector<int>> data(static_cast<std::size_t>(words));
  for (int wgt = 0; wgt < words; ++wgt)
    data[static_cast<std::size_t>(wgt)] =
        b.inputs(data_bits, std::string("d").append(std::to_string(wgt)));

  // Decoder fanning out into per-line enables (huge fanout stem -> heavy
  // reconvergence downstream).
  const auto lines = b.decoder(sel);
  for (int wgt = 0; wgt < words; ++wgt) {
    std::vector<int> masked;
    for (int i = 0; i < data_bits; ++i)
      masked.push_back(b.and2(lines[static_cast<std::size_t>(i)],
                              data[static_cast<std::size_t>(wgt)][static_cast<std::size_t>(i)]));
    b.output(b.tree(netlist::GateType::kOr, masked));
  }

  // Mux trees per word.
  for (int wgt = 0; wgt < words; ++wgt)
    b.output(b.mux_tree(sel, data[static_cast<std::size_t>(wgt)]));

  // Parity/ECC-style XOR networks.
  for (int wgt = 0; wgt < words; ++wgt)
    b.output(b.tree(netlist::GateType::kXor, data[static_cast<std::size_t>(wgt)]));

  return b.take();
}

netlist::Netlist gen_opencores_like(util::Rng& rng) {
  NlBuilder b(rng);
  const int crc_bits = static_cast<int>(rng.next_range(8, 32));
  const int data_bits = static_cast<int>(rng.next_range(8, 32));
  const auto state = b.inputs(crc_bits, "crc");
  const auto data = b.inputs(data_bits, "d");

  // A few unrolled CRC rounds (XOR-dominated, like comm cores).
  const std::uint64_t poly = rng.next_u64() | 0x3;
  auto crc = state;
  const int rounds = static_cast<int>(rng.next_range(2, 8));
  for (int r = 0; r < rounds; ++r) crc = b.crc_round(crc, data, poly);
  b.outputs(crc);

  // Gray encode of the data word.
  std::vector<int> gray;
  gray.push_back(data.back());
  for (std::size_t i = data.size() - 1; i > 0; --i)
    gray.push_back(b.xor2(data[i], data[i - 1]));
  b.outputs(gray);

  // Counter increment (half-adder chain) plus saturation detect.
  std::vector<int> inc;
  int carry = data[0];
  inc.push_back(b.not_(data[0]));
  for (std::size_t i = 1; i < data.size(); ++i) {
    inc.push_back(b.xor2(data[i], carry));
    carry = b.and2(data[i], carry);
  }
  b.outputs(inc);
  b.output(b.tree(netlist::GateType::kAnd, data));  // saturation

  // A small ALU slice: and/or/xor/add muxed by two control bits.
  const auto op = b.inputs(2, "op");
  const std::size_t w = std::min(state.size(), data.size());
  std::vector<int> av(state.begin(), state.begin() + static_cast<std::ptrdiff_t>(w));
  std::vector<int> bv(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(w));
  auto sum = b.ripple_add(av, bv);
  for (std::size_t i = 0; i < w; ++i) {
    const int x_and = b.and2(av[i], bv[i]);
    const int x_or = b.or2(av[i], bv[i]);
    const int x_xor = b.xor2(av[i], bv[i]);
    b.output(b.mux_tree(op, {x_and, x_or, x_xor, sum[i]}));
  }
  return b.take();
}

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names = {"EPFL", "ITC99", "IWLS", "Opencores"};
  return names;
}

netlist::Netlist generate_family(const std::string& family, util::Rng& rng) {
  if (family == "EPFL") return gen_epfl_like(rng);
  if (family == "ITC99") return gen_itc_like(rng);
  if (family == "IWLS") return gen_iwls_like(rng);
  if (family == "Opencores") return gen_opencores_like(rng);
  throw std::invalid_argument("unknown family: " + family);
}

}  // namespace dg::data
