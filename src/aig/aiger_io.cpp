#include "aig/aiger_io.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dg::aig {
namespace {

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

std::string write_aiger(const Aig& aig) {
  // AIGER var numbering: 1..I inputs, I+1..I+A ANDs. Our var ids already have
  // inputs and ANDs interleaved in creation order, so build a remap table.
  std::vector<Lit> remap(aig.num_vars(), 0);  // our var -> aiger literal (positive)
  std::uint32_t next = 1;
  for (Var v : aig.inputs()) remap[v] = next++ << 1;
  std::vector<Var> and_vars;
  for (Var v = 0; v < aig.num_vars(); ++v)
    if (aig.is_and(v)) {
      remap[v] = next++ << 1;
      and_vars.push_back(v);
    }
  auto map_lit = [&](Lit l) -> Lit {
    if (lit_var(l) == 0) return l;  // constants keep literals 0/1
    return remap[lit_var(l)] | (l & 1U);
  };

  std::ostringstream os;
  const std::size_t m = aig.num_inputs() + aig.num_ands();
  os << "aag " << m << ' ' << aig.num_inputs() << " 0 " << aig.num_outputs() << ' '
     << aig.num_ands() << '\n';
  for (Var v : aig.inputs()) os << remap[v] << '\n';
  for (Lit o : aig.outputs()) os << map_lit(o) << '\n';
  for (Var v : and_vars)
    os << remap[v] << ' ' << map_lit(aig.fanin0(v)) << ' ' << map_lit(aig.fanin1(v)) << '\n';
  for (std::size_t i = 0; i < aig.num_inputs(); ++i)
    os << 'i' << i << ' ' << aig.input_name(i) << '\n';
  for (std::size_t i = 0; i < aig.num_outputs(); ++i)
    os << 'o' << i << ' ' << aig.output_name(i) << '\n';
  return os.str();
}

bool write_aiger_file(const Aig& aig, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_aiger(aig);
  return static_cast<bool>(out);
}

std::optional<Aig> read_aiger(const std::string& text, std::string* error) {
  std::istringstream in(text);
  std::string tag;
  std::size_t m = 0, i = 0, l = 0, o = 0, a = 0;
  if (!(in >> tag >> m >> i >> l >> o >> a) || tag != "aag") {
    set_error(error, "bad AIGER header");
    return std::nullopt;
  }
  if (l != 0) {
    set_error(error, "latches not supported (combinational AIGs only)");
    return std::nullopt;
  }
  // Bound every count by the text that remains before allocating anything:
  // each input/output literal is one token and each AND three, and every
  // token takes at least two bytes (a digit plus its leading separator).
  const std::size_t pos = static_cast<std::size_t>(in.tellg());
  std::size_t tokens_left = (pos < text.size() ? text.size() - pos : 0) / 2;
  const auto fits = [&](std::size_t count, std::size_t tokens_each, const char* field) {
    if (count > tokens_left / tokens_each) {
      set_error(error, std::string("header field ") + field + " = " + std::to_string(count) +
                           " exceeds what the remaining text can hold");
      return false;
    }
    tokens_left -= count * tokens_each;
    return true;
  };
  if (!fits(i, 1, "I") || !fits(o, 1, "O") || !fits(a, 3, "A")) return std::nullopt;
  if (m != i + a) {
    set_error(error, "header field M = " + std::to_string(m) + " must equal I + A = " +
                         std::to_string(i + a));
    return std::nullopt;
  }

  Aig aig;
  // aiger var -> our literal
  std::vector<Lit> lit_of(m + 1, kLitFalse);
  lit_of[0] = kLitFalse;

  std::vector<Lit> in_lits(i);
  for (std::size_t k = 0; k < i; ++k) {
    if (!(in >> in_lits[k])) {
      set_error(error, "truncated input section");
      return std::nullopt;
    }
    if (lit_neg(in_lits[k]) || lit_var(in_lits[k]) == 0 || lit_var(in_lits[k]) > m) {
      set_error(error, "invalid input literal");
      return std::nullopt;
    }
    lit_of[lit_var(in_lits[k])] = make_lit(aig.add_input(), false);
  }
  std::vector<Lit> out_lits(o);
  for (std::size_t k = 0; k < o; ++k) {
    if (!(in >> out_lits[k])) {
      set_error(error, "truncated output section");
      return std::nullopt;
    }
  }
  std::vector<bool> defined(m + 1, false);
  defined[0] = true;
  for (Lit il : in_lits) defined[lit_var(il)] = true;

  auto resolve = [&](Lit aiger_lit, Lit& out_lit) -> bool {
    const Var v = lit_var(aiger_lit);
    if (v > m || !defined[v]) return false;
    out_lit = lit_of[v] ^ (aiger_lit & 1U);
    return true;
  };

  for (std::size_t k = 0; k < a; ++k) {
    Lit lhs = 0, rhs0 = 0, rhs1 = 0;
    if (!(in >> lhs >> rhs0 >> rhs1)) {
      set_error(error, "truncated AND section");
      return std::nullopt;
    }
    if (lit_neg(lhs) || lit_var(lhs) == 0 || lit_var(lhs) > m || defined[lit_var(lhs)]) {
      set_error(error, "invalid AND definition");
      return std::nullopt;
    }
    Lit f0 = 0, f1 = 0;
    if (!resolve(rhs0, f0) || !resolve(rhs1, f1)) {
      set_error(error, "AND fanin not topologically defined");
      return std::nullopt;
    }
    lit_of[lit_var(lhs)] = aig.add_and_raw(f0, f1);
    defined[lit_var(lhs)] = true;
  }

  for (Lit ol : out_lits) {
    Lit resolved = 0;
    if (!resolve(ol, resolved)) {
      set_error(error, "output literal undefined");
      return std::nullopt;
    }
    aig.add_output(resolved);
  }
  return aig;
}

std::optional<Aig> read_aiger_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return read_aiger(buf.str(), error);
}

}  // namespace dg::aig
