// Binary parameter checkpoints. Format:
//   magic "DGTP" | u32 version | u32 count |
//   per entry: u32 name_len | name bytes | i32 rows | i32 cols | f32 data[]
// Loading copies values into the existing named tensors, so a model is
// constructed first (fixing shapes) and then restored by name.
#pragma once

#include "nn/module.hpp"

#include <string>

namespace dg::nn {

/// Write all named parameters to `path`. Returns false on I/O failure.
bool save_params(const std::string& path, const NamedParams& params);

/// Read a checkpoint and copy matching entries into `params` (by exact name,
/// shapes must agree). Returns false on I/O error, unknown format, a size
/// field larger than the rest of the file, a missing name, or a shape
/// mismatch — and then leaves every parameter untouched.
bool load_params(const std::string& path, NamedParams& params);

}  // namespace dg::nn
