#include "aig/aig.hpp"

#include <algorithm>
#include <cassert>

namespace dg::aig {
namespace {
std::uint64_t strash_key(Lit a, Lit b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}
}  // namespace

Aig::Aig() {
  // Var 0: constant FALSE.
  type_.push_back(NodeType::kConst);
  fanin0_.push_back(0);
  fanin1_.push_back(0);
}

Var Aig::add_input(std::string name) {
  const Var v = static_cast<Var>(type_.size());
  type_.push_back(NodeType::kInput);
  fanin0_.push_back(0);
  fanin1_.push_back(0);
  inputs_.push_back(v);
  if (name.empty()) name = std::string("i").append(std::to_string(inputs_.size() - 1));
  input_names_.push_back(std::move(name));
  return v;
}

Lit Aig::add_and(Lit a, Lit b) {
  assert(lit_var(a) < type_.size() && lit_var(b) < type_.size());
  // Local simplification rules.
  if (a == kLitFalse || b == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (b == kLitTrue) return a;
  if (a == b) return a;
  if (a == lit_not(b)) return kLitFalse;
  // Structural hashing: one node per unordered fanin pair.
  const std::uint64_t key = strash_key(a, b);
  if (auto it = strash_.find(key); it != strash_.end()) return make_lit(it->second, false);
  const Lit lit = add_and_raw(a, b);
  strash_.emplace(key, lit_var(lit));
  return lit;
}

Lit Aig::add_and_raw(Lit a, Lit b) {
  assert(lit_var(a) < type_.size() && lit_var(b) < type_.size());
  const Var v = static_cast<Var>(type_.size());
  type_.push_back(NodeType::kAnd);
  fanin0_.push_back(a);
  fanin1_.push_back(b);
  ++num_ands_;
  return make_lit(v, false);
}

int Aig::add_output(Lit l, std::string name) {
  assert(lit_var(l) < type_.size());
  outputs_.push_back(l);
  if (name.empty()) name = std::string("o").append(std::to_string(outputs_.size() - 1));
  output_names_.push_back(std::move(name));
  return static_cast<int>(outputs_.size()) - 1;
}

std::vector<int> Aig::levels() const {
  std::vector<int> lvl(num_vars(), 0);
  for (Var v = 0; v < num_vars(); ++v) {
    if (is_and(v))
      lvl[v] = 1 + std::max(lvl[lit_var(fanin0_[v])], lvl[lit_var(fanin1_[v])]);
  }
  return lvl;
}

int Aig::depth() const {
  const auto lvl = levels();
  int d = 0;
  for (int l : lvl) d = std::max(d, l);
  return d;
}

std::vector<int> Aig::fanout_counts() const {
  std::vector<int> fo(num_vars(), 0);
  for (Var v = 0; v < num_vars(); ++v) {
    if (is_and(v)) {
      ++fo[lit_var(fanin0_[v])];
      ++fo[lit_var(fanin1_[v])];
    }
  }
  for (Lit o : outputs_) ++fo[lit_var(o)];
  return fo;
}

bool Aig::uses_constants() const {
  for (Lit o : outputs_)
    if (lit_var(o) == 0) return true;
  for (Var v = 0; v < num_vars(); ++v) {
    if (is_and(v) && (lit_var(fanin0_[v]) == 0 || lit_var(fanin1_[v]) == 0)) return true;
  }
  return false;
}

Lit Aig::make_or(Lit a, Lit b) { return lit_not(add_and(lit_not(a), lit_not(b))); }

Lit Aig::make_xor(Lit a, Lit b) {
  // a ^ b = !(a & b) & !(!a & !b)
  const Lit both = add_and(a, b);
  const Lit neither = add_and(lit_not(a), lit_not(b));
  return add_and(lit_not(both), lit_not(neither));
}

Lit Aig::make_mux(Lit sel, Lit t, Lit e) {
  const Lit a = add_and(sel, t);
  const Lit b = add_and(lit_not(sel), e);
  return make_or(a, b);
}

Lit Aig::make_and_n(const std::vector<Lit>& lits) {
  if (lits.empty()) return kLitTrue;
  // Balanced tree keeps depth logarithmic for wide gates.
  std::vector<Lit> cur = lits;
  while (cur.size() > 1) {
    std::vector<Lit> next;
    next.reserve((cur.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < cur.size(); i += 2) next.push_back(add_and(cur[i], cur[i + 1]));
    if (cur.size() % 2 == 1) next.push_back(cur.back());
    cur = std::move(next);
  }
  return cur[0];
}

Lit Aig::make_or_n(const std::vector<Lit>& lits) {
  std::vector<Lit> inv;
  inv.reserve(lits.size());
  for (Lit l : lits) inv.push_back(lit_not(l));
  return lit_not(make_and_n(inv));
}

}  // namespace dg::aig
