// ASCII AIGER (.aag) reader/writer for combinational AIGs (no latches).
// This is the interchange format of the ABC toolchain the paper's data
// pipeline relies on; it lets users bring their own synthesized circuits.
#pragma once

#include "aig/aig.hpp"

#include <iosfwd>
#include <optional>
#include <string>

namespace dg::aig {

/// Serialize to ASCII AIGER. Variables are renumbered to the AIGER layout
/// (inputs first, then ANDs in topological order).
std::string write_aiger(const Aig& aig);
bool write_aiger_file(const Aig& aig, const std::string& path);

/// Parse ASCII AIGER; returns std::nullopt with a diagnostic in `error` on
/// malformed input (bad header, latches present, undefined literals,
/// non-topological definitions). Header counts are checked before anything
/// is allocated: I, O and A must fit in the text that follows, and M must
/// equal I + A; the diagnostic names the offending field.
std::optional<Aig> read_aiger(const std::string& text, std::string* error = nullptr);
std::optional<Aig> read_aiger_file(const std::string& path, std::string* error = nullptr);

}  // namespace dg::aig
