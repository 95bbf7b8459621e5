// Input patterns for bit-parallel simulation. A "word" carries 64
// simulation patterns; exhaustive blocks enumerate all assignments of up to
// 6 + 58 inputs with the standard striping trick. Random words come straight
// from util::Rng (probability.hpp gives their order).
#pragma once

#include <cstdint>

namespace dg::sim {

/// Word for input `input_idx` within exhaustive block `block_idx`, where all
/// 2^num_inputs assignments are laid out as consecutive bits across blocks.
/// Inputs 0..5 toggle within a word; input k >= 6 toggles every 2^(k-6) blocks.
std::uint64_t exhaustive_word(std::size_t input_idx, std::uint64_t block_idx);

/// Number of 64-bit blocks needed to enumerate 2^num_inputs patterns
/// (at least 1).
std::uint64_t exhaustive_blocks(std::size_t num_inputs);

/// Mask selecting the valid patterns in the (possibly partial) last block
/// when only `valid` of the 64 bit-lanes carry real patterns.
std::uint64_t lane_mask(std::uint64_t valid);

}  // namespace dg::sim
