#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>

namespace dg::netlist {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kInput: return "INPUT";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kOr: return "OR";
    case GateType::kNand: return "NAND";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kBuf: return "BUF";
  }
  return "?";
}

int Netlist::add_input(std::string name) {
  if (name.empty()) name = std::string("I").append(std::to_string(inputs_.size()));
  gates_.push_back(Gate{GateType::kInput, {}, std::move(name)});
  inputs_.push_back(static_cast<int>(gates_.size()) - 1);
  return inputs_.back();
}

int Netlist::add_gate(GateType type, std::vector<int> fanins, std::string name) {
  assert(type != GateType::kInput);
  assert(!fanins.empty());
  const int self = static_cast<int>(gates_.size());
  for (int f : fanins) {
    assert(f >= 0 && f < self);
    (void)f;
  }
  if ((type == GateType::kNot || type == GateType::kBuf)) assert(fanins.size() == 1);
  if (name.empty()) name = std::string("G").append(std::to_string(self));
  gates_.push_back(Gate{type, std::move(fanins), std::move(name)});
  return self;
}

void Netlist::mark_output(int gate) {
  assert(gate >= 0 && gate < static_cast<int>(gates_.size()));
  outputs_.push_back(gate);
}

std::vector<int> Netlist::levels() const {
  std::vector<int> lvl(gates_.size(), 0);
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    for (int f : gates_[i].fanins)
      lvl[i] = std::max(lvl[i], lvl[static_cast<std::size_t>(f)] + 1);
  }
  return lvl;
}

int Netlist::depth() const {
  const auto lvl = levels();
  int d = 0;
  for (int l : lvl) d = std::max(d, l);
  return d;
}

std::vector<std::size_t> Netlist::type_histogram() const {
  std::vector<std::size_t> histogram(9, 0);
  for (const auto& g : gates_) ++histogram[static_cast<std::size_t>(g.type)];
  return histogram;
}

Netlist decompose_to_2input(const Netlist& src) {
  Netlist dst;
  std::vector<int> map(src.size(), -1);

  // Balanced reduction tree over already-mapped fanins.
  auto tree = [&](GateType t, std::vector<int> xs) {
    while (xs.size() > 1) {
      std::vector<int> next;
      for (std::size_t i = 0; i + 1 < xs.size(); i += 2)
        next.push_back(dst.add_gate(t, {xs[i], xs[i + 1]}));
      if (xs.size() % 2 == 1) next.push_back(xs.back());
      xs = std::move(next);
    }
    return xs[0];
  };

  for (std::size_t i = 0; i < src.size(); ++i) {
    const Gate& g = src.gate(static_cast<int>(i));
    if (g.type == GateType::kInput) {
      map[i] = dst.add_input(g.name);
      continue;
    }
    std::vector<int> fan;
    fan.reserve(g.fanins.size());
    for (int f : g.fanins) fan.push_back(map[static_cast<std::size_t>(f)]);

    if (fan.size() <= 2) {
      map[i] = dst.add_gate(g.type, std::move(fan), g.name);
      continue;
    }
    switch (g.type) {
      case GateType::kAnd:
      case GateType::kOr:
      case GateType::kXor:
        map[i] = tree(g.type, std::move(fan));
        break;
      case GateType::kNand: {
        // AND-tree over all but the final pair, NAND at the root.
        std::vector<int> head(fan.begin(), fan.end() - 1);
        const int partial = tree(GateType::kAnd, std::move(head));
        map[i] = dst.add_gate(GateType::kNand, {partial, fan.back()}, g.name);
        break;
      }
      case GateType::kNor: {
        std::vector<int> head(fan.begin(), fan.end() - 1);
        const int partial = tree(GateType::kOr, std::move(head));
        map[i] = dst.add_gate(GateType::kNor, {partial, fan.back()}, g.name);
        break;
      }
      case GateType::kXnor: {
        std::vector<int> head(fan.begin(), fan.end() - 1);
        const int partial = tree(GateType::kXor, std::move(head));
        map[i] = dst.add_gate(GateType::kXnor, {partial, fan.back()}, g.name);
        break;
      }
      default:
        map[i] = dst.add_gate(g.type, std::move(fan), g.name);
        break;
    }
  }
  for (int o : src.outputs()) dst.mark_output(map[static_cast<std::size_t>(o)]);
  return dst;
}

std::uint64_t eval_gate_words(GateType type, const std::vector<std::uint64_t>& fanin_words) {
  switch (type) {
    case GateType::kInput: return 0;
    case GateType::kBuf: return fanin_words[0];
    case GateType::kNot: return ~fanin_words[0];
    case GateType::kAnd:
    case GateType::kNand: {
      std::uint64_t acc = ~0ULL;
      for (std::uint64_t w : fanin_words) acc &= w;
      return type == GateType::kAnd ? acc : ~acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::uint64_t acc = 0ULL;
      for (std::uint64_t w : fanin_words) acc |= w;
      return type == GateType::kOr ? acc : ~acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::uint64_t acc = 0ULL;
      for (std::uint64_t w : fanin_words) acc ^= w;
      return type == GateType::kXor ? acc : ~acc;
    }
  }
  return 0;
}

}  // namespace dg::netlist
