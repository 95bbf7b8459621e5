#include "data/generators_large.hpp"

#include <cassert>

namespace dg::data {
namespace {

using namespace dg::aig;

std::pair<Lit, Lit> full_adder(Aig& a, Lit x, Lit y, Lit c) {
  const Lit xy = a.make_xor(x, y);
  const Lit sum = a.make_xor(xy, c);
  const Lit carry = a.make_or(a.add_and(x, y), a.add_and(c, xy));
  return {sum, carry};
}

/// Ripple addition; result has max(|x|,|y|)+1 bits (LSB first).
std::vector<Lit> ripple_add(Aig& a, std::vector<Lit> x, std::vector<Lit> y) {
  if (x.size() < y.size()) std::swap(x, y);
  y.resize(x.size(), kLitFalse);
  std::vector<Lit> sum;
  Lit carry = kLitFalse;
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto [s, c] = full_adder(a, x[i], y[i], carry);
    sum.push_back(s);
    carry = c;
  }
  sum.push_back(carry);
  return sum;
}

/// Carry-select addition: per-block ripple sums for both carry-in values,
/// then a short mux chain selects — depth ~ 2*block + n/block instead of 2n.
/// This is what keeps the processor slices wide-and-shallow like the paper's
/// 80386/Viper rows (122/133 levels).
std::vector<Lit> select_add(Aig& a, const std::vector<Lit>& x, const std::vector<Lit>& y,
                            std::size_t block = 8) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  std::vector<Lit> sum(n + 1, kLitFalse);
  Lit carry = kLitFalse;
  for (std::size_t b0 = 0; b0 < n; b0 += block) {
    const std::size_t b1 = std::min(n, b0 + block);
    // Two speculative ripple blocks.
    std::vector<Lit> s0, s1;
    Lit c0 = kLitFalse, c1 = kLitTrue;
    for (std::size_t i = b0; i < b1; ++i) {
      auto [sa, ca] = full_adder(a, x[i], y[i], c0);
      s0.push_back(sa);
      c0 = ca;
      auto [sb, cb] = full_adder(a, x[i], y[i], c1);
      s1.push_back(sb);
      c1 = cb;
    }
    for (std::size_t i = b0; i < b1; ++i)
      sum[i] = a.make_mux(carry, s1[i - b0], s0[i - b0]);
    carry = a.make_mux(carry, c1, c0);
  }
  sum[n] = carry;
  return sum;
}

/// x >= c for a constant c (MSB-first recursion, constants folded away).
Lit ge_const(Aig& a, const std::vector<Lit>& x, std::uint64_t c) {
  if (c >= (1ULL << x.size())) return kLitFalse;  // unrepresentable threshold
  Lit ge = kLitTrue;  // equality so far => >= holds
  for (std::size_t k = 0; k < x.size(); ++k) {
    const Lit xb = x[k];
    if ((c >> k) & 1)
      ge = a.add_and(xb, ge);          // need x_k = 1, or strictly greater below
    else
      ge = a.make_or(xb, ge);          // x_k = 1 makes x greater regardless
  }
  // NOTE: loop runs LSB->MSB with the accumulator as the "rest" term, which
  // is exactly the MSB-first recursion unrolled from the other end.
  return ge;
}

/// Blocked prefix-OR: out[i] = OR(in[0..i-1]), out[0] = false. Serial within
/// blocks and across block carries, so depth ~ block + n/block instead of n.
std::vector<Lit> blocked_prefix_or(Aig& a, const std::vector<Lit>& in, std::size_t block) {
  const std::size_t n = in.size();
  const std::size_t nb = (n + block - 1) / block;
  std::vector<Lit> block_or(nb, kLitFalse);
  for (std::size_t j = 0; j < nb; ++j) {
    std::vector<Lit> chunk;
    for (std::size_t i = j * block; i < std::min(n, (j + 1) * block); ++i)
      chunk.push_back(in[i]);
    block_or[j] = a.make_or_n(chunk);
  }
  std::vector<Lit> carry(nb, kLitFalse);
  for (std::size_t j = 1; j < nb; ++j) carry[j] = a.make_or(carry[j - 1], block_or[j - 1]);

  std::vector<Lit> out(n, kLitFalse);
  for (std::size_t j = 0; j < nb; ++j) {
    Lit acc = carry[j];
    for (std::size_t i = j * block; i < std::min(n, (j + 1) * block); ++i) {
      out[i] = acc;
      acc = a.make_or(acc, in[i]);
    }
  }
  return out;
}

}  // namespace

aig::Aig gen_arbiter(int num_requests, int stages) {
  Aig a;
  const std::size_t n = static_cast<std::size_t>(num_requests);
  std::size_t ptr_bits = 1;
  while ((1ULL << ptr_bits) < n) ++ptr_bits;

  std::vector<Lit> req(n);
  for (std::size_t i = 0; i < n; ++i) req[i] = make_lit(a.add_input("req" + std::to_string(i)), false);
  std::vector<Lit> ptr(ptr_bits);
  for (std::size_t b = 0; b < ptr_bits; ++b) ptr[b] = make_lit(a.add_input("ptr" + std::to_string(b)), false);

  std::vector<Lit> grant(n, kLitFalse);
  for (int stage = 0; stage < stages; ++stage) {
    // Thermometer mask from the rotating pointer: mask_i = (i >= ptr).
    std::vector<Lit> masked(n);
    for (std::size_t i = 0; i < n; ++i) {
      // i >= ptr  <=>  NOT (ptr >= i+1)
      const Lit ptr_gt_i = ge_const(a, ptr, static_cast<std::uint64_t>(i) + 1);
      masked[i] = a.add_and(req[i], lit_not(ptr_gt_i));
    }
    // Two priority chains: masked (above the pointer) and unmasked.
    const auto pre_m = blocked_prefix_or(a, masked, 16);
    const auto pre_u = blocked_prefix_or(a, req, 16);
    const Lit any_m = a.make_or(pre_m[n - 1], masked[n - 1]);
    for (std::size_t i = 0; i < n; ++i) {
      const Lit gm = a.add_and(masked[i], lit_not(pre_m[i]));
      const Lit gu = a.add_and(req[i], lit_not(pre_u[i]));
      grant[i] = a.make_mux(any_m, gm, gu);
    }
    if (stage + 1 == stages) break;
    // Next round: drop the granted request, advance the pointer to the
    // binary-encoded grant index + 1.
    for (std::size_t i = 0; i < n; ++i) req[i] = a.add_and(req[i], lit_not(grant[i]));
    std::vector<Lit> idx(ptr_bits, kLitFalse);
    for (std::size_t b = 0; b < ptr_bits; ++b) {
      std::vector<Lit> contributors;
      for (std::size_t i = 0; i < n; ++i)
        if ((i >> b) & 1) contributors.push_back(grant[i]);
      idx[b] = a.make_or_n(contributors);
    }
    // ptr' = idx + 1 (ripple increment).
    Lit carry = kLitTrue;
    for (std::size_t b = 0; b < ptr_bits; ++b) {
      const Lit s = a.make_xor(idx[b], carry);
      carry = a.add_and(idx[b], carry);
      ptr[b] = s;
    }
  }

  for (std::size_t i = 0; i < n; ++i) a.add_output(grant[i], "grant" + std::to_string(i));
  return a;
}

aig::Aig gen_multiplier(int bits) {
  Aig a;
  const std::size_t n = static_cast<std::size_t>(bits);
  std::vector<Lit> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = make_lit(a.add_input(std::string("x").append(std::to_string(i))), false);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = make_lit(a.add_input(std::string("y").append(std::to_string(i))), false);

  // Classic array multiplier: accumulate shifted partial-product rows.
  std::vector<Lit> acc;
  for (std::size_t i = 0; i < n; ++i) acc.push_back(a.add_and(x[i], y[0]));
  std::vector<Lit> result{acc[0]};
  for (std::size_t r = 1; r < n; ++r) {
    std::vector<Lit> pp;
    for (std::size_t i = 0; i < n; ++i) pp.push_back(a.add_and(x[i], y[r]));
    std::vector<Lit> shifted(acc.begin() + 1, acc.end());  // divide by 2
    acc = ripple_add(a, shifted, pp);
    result.push_back(acc[0]);
  }
  for (std::size_t i = 1; i < acc.size(); ++i) result.push_back(acc[i]);
  for (std::size_t i = 0; i < result.size(); ++i)
    a.add_output(result[i], std::string("p").append(std::to_string(i)));
  return a;
}

aig::Aig gen_squarer(int bits) {
  // x * x through the same array structure; structural hashing shares the
  // symmetric partial products, producing the fanout-heavy profile of a
  // dedicated squarer.
  Aig a;
  const std::size_t n = static_cast<std::size_t>(bits);
  std::vector<Lit> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = make_lit(a.add_input(std::string("x").append(std::to_string(i))), false);

  std::vector<Lit> acc;
  for (std::size_t i = 0; i < n; ++i) acc.push_back(a.add_and(x[i], x[0]));
  std::vector<Lit> result{acc[0]};
  for (std::size_t r = 1; r < n; ++r) {
    std::vector<Lit> pp;
    for (std::size_t i = 0; i < n; ++i) pp.push_back(a.add_and(x[i], x[r]));
    std::vector<Lit> shifted(acc.begin() + 1, acc.end());
    acc = ripple_add(a, shifted, pp);
    result.push_back(acc[0]);
  }
  for (std::size_t i = 1; i < acc.size(); ++i) result.push_back(acc[i]);
  for (std::size_t i = 0; i < result.size(); ++i)
    a.add_output(result[i], "sq" + std::to_string(i));
  return a;
}

aig::Aig gen_processor_slice(int width, int num_units, std::uint64_t seed) {
  Aig a;
  util::Rng rng(seed);
  const std::size_t w = static_cast<std::size_t>(width);

  std::vector<Lit> ra(w), rb(w);
  for (std::size_t i = 0; i < w; ++i) ra[i] = make_lit(a.add_input("ra" + std::to_string(i)), false);
  for (std::size_t i = 0; i < w; ++i) rb[i] = make_lit(a.add_input("rb" + std::to_string(i)), false);
  std::vector<Lit> op(4);
  for (std::size_t i = 0; i < 4; ++i) op[i] = make_lit(a.add_input("op" + std::to_string(i)), false);

  // Opcode decode: 16 one-hot lines shared by all units (fanout stems).
  std::vector<Lit> dec(16);
  for (std::size_t code = 0; code < 16; ++code) {
    std::vector<Lit> terms;
    for (std::size_t b = 0; b < 4; ++b)
      terms.push_back((code >> b) & 1 ? op[b] : lit_not(op[b]));
    dec[code] = a.make_and_n(terms);
  }

  std::vector<Lit> merged(w, kLitFalse);
  std::vector<Lit> unit_a = ra, unit_b = rb;
  for (int u = 0; u < num_units; ++u) {
    // Per-unit operand skew: rotate + conditional invert, so every unit
    // reconverges on the same register inputs through different paths.
    const std::size_t rot = static_cast<std::size_t>(rng.next_below(w));
    std::vector<Lit> ua(w), ub(w);
    for (std::size_t i = 0; i < w; ++i) {
      ua[i] = unit_a[(i + rot) % w];
      ub[i] = rng.next_bool(0.25) ? lit_not(unit_b[i]) : unit_b[i];
    }

    // ALU: add, and, or, xor. Carry-select addition keeps the slice shallow.
    auto sum = select_add(a, ua, ub);
    std::vector<Lit> x_and(w), x_or(w), x_xor(w);
    for (std::size_t i = 0; i < w; ++i) {
      x_and[i] = a.add_and(ua[i], ub[i]);
      x_or[i] = a.make_or(ua[i], ub[i]);
      x_xor[i] = a.make_xor(ua[i], ub[i]);
    }
    // Barrel shifter over ua by the low log2(w) bits of ub.
    std::vector<Lit> sh = ua;
    std::size_t sh_bits = 0;
    while ((1ULL << sh_bits) < w) ++sh_bits;
    for (std::size_t s = 0; s < sh_bits; ++s) {
      std::vector<Lit> next(w);
      for (std::size_t i = 0; i < w; ++i) {
        const std::size_t from = (i + (1ULL << s)) % w;
        next[i] = a.make_mux(ub[s], sh[from], sh[i]);
      }
      sh = std::move(next);
    }

    // Result select: one-hot AND-OR network over the decode lines.
    const std::size_t base = static_cast<std::size_t>(u) * 3 % 12;
    std::vector<Lit> unit_out(w);
    for (std::size_t i = 0; i < w; ++i) {
      const Lit sel_add = a.add_and(dec[base], sum[i]);
      const Lit sel_and = a.add_and(dec[base + 1], x_and[i]);
      const Lit sel_or = a.add_and(dec[base + 2], x_or[i]);
      const Lit sel_xor = a.add_and(dec[base + 3], x_xor[i]);
      const Lit sel_sh = a.add_and(dec[(base + 4) % 16], sh[i]);
      unit_out[i] = a.make_or_n({sel_add, sel_and, sel_or, sel_xor, sel_sh});
    }

    // Flags: zero / parity / msb.
    std::vector<Lit> nz = unit_out;
    a.add_output(lit_not(a.make_or_n(nz)), std::string("z").append(std::to_string(u)));
    Lit parity = unit_out[0];
    for (std::size_t i = 1; i < w; ++i) parity = a.make_xor(parity, unit_out[i]);
    a.add_output(parity, "par" + std::to_string(u));

    for (std::size_t i = 0; i < w; ++i) merged[i] = a.make_xor(merged[i], unit_out[i]);
    // Bypass path: only the second unit reads the first unit's result (as a
    // forwarding network would); later units run in parallel off the
    // register buses, keeping the slice wide and shallow.
    unit_a = (u == 0) ? unit_out : ra;
  }

  for (std::size_t i = 0; i < w; ++i) a.add_output(merged[i], "res" + std::to_string(i));
  return a;
}

std::vector<LargeDesign> table3_designs(util::BenchScale scale) {
  struct Params {
    int arb_n, arb_stages, sq_bits, mult_bits, p386_w, p386_u, viper_w, viper_u;
  };
  Params p{};
  switch (scale) {
    case util::BenchScale::kTiny:
      p = {32, 2, 16, 18, 16, 2, 24, 3};
      break;
    case util::BenchScale::kSmall:
      p = {64, 3, 28, 32, 32, 3, 48, 4};
      break;
    case util::BenchScale::kPaper:
      p = {256, 4, 72, 66, 32, 6, 64, 9};
      break;
  }
  std::vector<LargeDesign> designs;
  designs.push_back({"Arbiter", gen_arbiter(p.arb_n, p.arb_stages)});
  designs.push_back({"Squarer", gen_squarer(p.sq_bits)});
  designs.push_back({"Multiplier", gen_multiplier(p.mult_bits)});
  designs.push_back({"80386 Processor", gen_processor_slice(p.p386_w, p.p386_u, 386)});
  designs.push_back({"Viper Processor", gen_processor_slice(p.viper_w, p.viper_u, 1987)});
  return designs;
}

}  // namespace dg::data
