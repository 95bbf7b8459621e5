// ISCAS-style .bench format reader/writer, the textual netlist format used
// by the benchmark suites the paper draws from (ITC'99, IWLS, ISCAS).
//
//   INPUT(a)
//   OUTPUT(f)
//   f = NAND(a, b)
#pragma once

#include "netlist/netlist.hpp"

#include <optional>
#include <string>

namespace dg::netlist {

std::string write_bench(const Netlist& nl);
bool write_bench_file(const Netlist& nl, const std::string& path);

/// Parse .bench text. Gate definitions may appear in any order (depth-first
/// resolution, linear in the fanin count; a file in topological order keeps
/// its gate order). Unknown gate types, undefined or cyclic signals, a
/// NOT/BUF without exactly one fanin and a signal defined twice (by INPUT or
/// a gate) fail with a message in `error` that starts with the 1-based line
/// number.
std::optional<Netlist> read_bench(const std::string& text, std::string* error = nullptr);
std::optional<Netlist> read_bench_file(const std::string& path, std::string* error = nullptr);

}  // namespace dg::netlist
