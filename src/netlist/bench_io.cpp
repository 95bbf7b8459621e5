#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dg::netlist {
namespace {

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<GateType> parse_gate_type(std::string t) {
  std::transform(t.begin(), t.end(), t.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (t == "NOT" || t == "INV") return GateType::kNot;
  if (t == "AND") return GateType::kAnd;
  if (t == "OR") return GateType::kOr;
  if (t == "NAND") return GateType::kNand;
  if (t == "NOR") return GateType::kNor;
  if (t == "XOR") return GateType::kXor;
  if (t == "XNOR") return GateType::kXnor;
  if (t == "BUF" || t == "BUFF") return GateType::kBuf;
  return std::nullopt;
}

struct PendingGate {
  std::string name;
  GateType type;
  std::vector<std::string> fanin_names;
  int line = 0;  ///< 1-based line of the definition
};

/// "line N: msg" — every parse error names the line it is about.
std::string at_line(int line, const std::string& msg) {
  return "line " + std::to_string(line) + ": " + msg;
}

}  // namespace

std::string write_bench(const Netlist& nl) {
  std::ostringstream os;
  for (int i : nl.inputs()) os << "INPUT(" << nl.gate(i).name << ")\n";
  for (int o : nl.outputs()) os << "OUTPUT(" << nl.gate(o).name << ")\n";
  for (const auto& g : nl.gates()) {
    if (g.type == GateType::kInput) continue;
    os << g.name << " = " << gate_type_name(g.type) << '(';
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) os << ", ";
      os << nl.gate(g.fanins[i]).name;
    }
    os << ")\n";
  }
  return os.str();
}

bool write_bench_file(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_bench(nl);
  return static_cast<bool>(out);
}

std::optional<Netlist> read_bench(const std::string& text, std::string* error) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> input_names;
  std::vector<std::pair<std::string, int>> outputs;  ///< name, line
  std::vector<PendingGate> pending;
  // Every signal is defined once, by an INPUT or a gate. A second definition
  // is rejected rather than shadowing the first (an input named like a gate
  // would hide that gate's fanins, e.g. a self-loop).
  std::unordered_map<std::string, int> defined_at;
  const auto define = [&](const std::string& name, int at) {
    const auto [it, fresh] = defined_at.emplace(name, at);
    if (!fresh)
      set_error(error, at_line(at, "'" + name + "' already defined on line " +
                                       std::to_string(it->second)));
    return fresh;
  };

  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      // INPUT(x) or OUTPUT(x)
      const std::size_t lp = line.find('(');
      const std::size_t rp = line.rfind(')');
      if (lp == std::string::npos || rp == std::string::npos || rp < lp) {
        set_error(error, at_line(line_no, "malformed line: " + line));
        return std::nullopt;
      }
      const std::string head = trim(line.substr(0, lp));
      const std::string arg = trim(line.substr(lp + 1, rp - lp - 1));
      if (head == "INPUT") {
        if (!define(arg, line_no)) return std::nullopt;
        input_names.push_back(arg);
      } else if (head == "OUTPUT") {
        outputs.emplace_back(arg, line_no);
      } else {
        set_error(error, at_line(line_no, "unknown directive: " + head));
        return std::nullopt;
      }
      continue;
    }

    PendingGate pg;
    pg.name = trim(line.substr(0, eq));
    pg.line = line_no;
    const std::string rhs = trim(line.substr(eq + 1));
    const std::size_t lp = rhs.find('(');
    const std::size_t rp = rhs.rfind(')');
    if (lp == std::string::npos || rp == std::string::npos || rp < lp) {
      set_error(error, at_line(line_no, "malformed gate: " + line));
      return std::nullopt;
    }
    const auto type = parse_gate_type(trim(rhs.substr(0, lp)));
    if (!type) {
      set_error(error, at_line(line_no, "unknown gate type in: " + line));
      return std::nullopt;
    }
    pg.type = *type;
    std::string args = rhs.substr(lp + 1, rp - lp - 1);
    std::istringstream argstream(args);
    std::string tok;
    while (std::getline(argstream, tok, ',')) {
      tok = trim(tok);
      if (!tok.empty()) pg.fanin_names.push_back(tok);
    }
    if (pg.fanin_names.empty()) {
      set_error(error, at_line(line_no, "gate with no fanins: " + line));
      return std::nullopt;
    }
    if ((pg.type == GateType::kNot || pg.type == GateType::kBuf) && pg.fanin_names.size() != 1) {
      set_error(error, at_line(line_no, std::string(gate_type_name(pg.type)) +
                                            " takes exactly one fanin: " + line));
      return std::nullopt;
    }
    if (!define(pg.name, line_no)) return std::nullopt;
    pending.push_back(std::move(pg));
  }

  // Emit gates depth-first from each pending gate in file order: a gate goes
  // out once its fanins have, so a file already in topological order
  // (everything write_bench emits) keeps its gate ids, and any order resolves
  // in time linear in the fanin count. The explicit stack keeps a deep chain
  // off the call stack. Reaching an undefined signal or a gate still on the
  // stack (a cycle) dooms the root, the first gate in file order that cannot
  // be emitted.
  Netlist nl;
  std::unordered_map<std::string, int> id_of;
  for (const auto& n : input_names) id_of[n] = nl.add_input(n);
  std::unordered_map<std::string, std::size_t> pending_of;
  for (std::size_t i = 0; i < pending.size(); ++i) pending_of.emplace(pending[i].name, i);

  std::vector<bool> on_stack(pending.size(), false);
  std::vector<std::pair<std::size_t, std::size_t>> stack;  ///< gate, next fanin to resolve
  for (std::size_t root = 0; root < pending.size(); ++root) {
    if (id_of.count(pending[root].name) != 0) continue;
    stack.emplace_back(root, 0);
    on_stack[root] = true;
    while (!stack.empty()) {
      const auto [i, next] = stack.back();
      const PendingGate& pg = pending[i];
      if (next < pg.fanin_names.size()) {
        ++stack.back().second;
        const std::string& fn = pg.fanin_names[next];
        if (id_of.count(fn) != 0) continue;
        const auto it = pending_of.find(fn);
        if (it == pending_of.end() || on_stack[it->second]) {
          set_error(error, at_line(pending[root].line,
                                   "cyclic or undefined signal in netlist at '" +
                                       pending[root].name + "'"));
          return std::nullopt;
        }
        stack.emplace_back(it->second, 0);
        on_stack[it->second] = true;
        continue;
      }
      std::vector<int> fanins;
      fanins.reserve(pg.fanin_names.size());
      for (const auto& fn : pg.fanin_names) fanins.push_back(id_of[fn]);
      id_of[pg.name] = nl.add_gate(pg.type, std::move(fanins), pg.name);
      on_stack[i] = false;
      stack.pop_back();
    }
  }

  for (const auto& [n, at] : outputs) {
    auto it = id_of.find(n);
    if (it == id_of.end()) {
      set_error(error, at_line(at, "undefined output: " + n));
      return std::nullopt;
    }
    nl.mark_output(it->second);
  }
  return nl;
}

std::optional<Netlist> read_bench_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return read_bench(buf.str(), error);
}

}  // namespace dg::netlist
