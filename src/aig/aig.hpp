// And-Inverter Graph with complemented edges and structural hashing — the
// unified circuit format DeepGate learns on (Sec. III-B). The in-memory form
// uses complemented edges (compact, standard for synthesis); the GNN-facing
// form with explicit NOT nodes is produced by gate_graph.hpp.
//
// Variables are created in topological order (fanins must already exist), so
// variable id order IS a topological order — levelization and simulation are
// single forward passes.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace dg::aig {

/// Literal = 2*var + complement bit. Var 0 is the constant-FALSE node, so
/// literal 0 = const0 and literal 1 = const1 (AIGER convention).
using Lit = std::uint32_t;
using Var = std::uint32_t;

constexpr Lit kLitFalse = 0;
constexpr Lit kLitTrue = 1;

inline Lit make_lit(Var v, bool negated) { return (v << 1) | static_cast<Lit>(negated); }
inline Var lit_var(Lit l) { return l >> 1; }
inline bool lit_neg(Lit l) { return (l & 1U) != 0; }
inline Lit lit_not(Lit l) { return l ^ 1U; }
inline Lit lit_strip(Lit l) { return l & ~1U; }

enum class NodeType : std::uint8_t { kConst, kInput, kAnd };

class Aig {
 public:
  Aig();

  /// Create a primary input; returns its variable id.
  Var add_input(std::string name = "");

  /// Create (or reuse) an AND node over two literals. Applies the standard
  /// local simplifications (constants, idempotence, complement) and
  /// structural hashing, so the returned literal may refer to an existing
  /// node or a constant.
  Lit add_and(Lit a, Lit b);

  /// Create an AND node with no simplification or hashing (used by file
  /// readers to preserve structure exactly).
  Lit add_and_raw(Lit a, Lit b);

  /// Register a primary output literal.
  int add_output(Lit l, std::string name = "");

  // -- Node queries ---------------------------------------------------------
  std::size_t num_vars() const { return type_.size(); }  // includes const var 0
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_ands() const { return num_ands_; }
  std::size_t num_outputs() const { return outputs_.size(); }

  NodeType type(Var v) const { return type_[v]; }
  bool is_const(Var v) const { return type_[v] == NodeType::kConst; }
  bool is_input(Var v) const { return type_[v] == NodeType::kInput; }
  bool is_and(Var v) const { return type_[v] == NodeType::kAnd; }

  Lit fanin0(Var v) const { return fanin0_[v]; }
  Lit fanin1(Var v) const { return fanin1_[v]; }

  const std::vector<Var>& inputs() const { return inputs_; }
  const std::vector<Lit>& outputs() const { return outputs_; }
  const std::string& input_name(std::size_t i) const { return input_names_[i]; }
  const std::string& output_name(std::size_t i) const { return output_names_[i]; }

  // -- Derived structure ----------------------------------------------------
  /// Logic level per variable: const/inputs 0, AND = 1 + max(fanin levels).
  std::vector<int> levels() const;
  /// Maximum level over all variables.
  int depth() const;
  /// Fanout count per variable (output pins count as fanout).
  std::vector<int> fanout_counts() const;
  /// True if any output's transitive fanin (or the output itself) touches
  /// the constant node.
  bool uses_constants() const;

  /// Convenience builders (tree decompositions through add_and).
  Lit make_or(Lit a, Lit b);
  Lit make_xor(Lit a, Lit b);
  Lit make_mux(Lit sel, Lit t, Lit e);
  Lit make_and_n(const std::vector<Lit>& lits);
  Lit make_or_n(const std::vector<Lit>& lits);

 private:
  std::vector<NodeType> type_;
  std::vector<Lit> fanin0_, fanin1_;  // valid only for AND nodes
  std::vector<Var> inputs_;
  std::vector<std::string> input_names_;
  std::vector<Lit> outputs_;
  std::vector<std::string> output_names_;
  std::unordered_map<std::uint64_t, Var> strash_;
  std::size_t num_ands_ = 0;
};

}  // namespace dg::aig
