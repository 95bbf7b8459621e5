#include "sim/patterns.hpp"

namespace dg::sim {
namespace {

// Striped constants for the 6 in-word exhaustive inputs: input i toggles
// every 2^i bits.
constexpr std::uint64_t kStripe[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};

}  // namespace

std::uint64_t exhaustive_word(std::size_t input_idx, std::uint64_t block_idx) {
  if (input_idx < 6) return kStripe[input_idx];
  const std::uint64_t bit = (block_idx >> (input_idx - 6)) & 1ULL;
  return bit ? ~0ULL : 0ULL;
}

std::uint64_t exhaustive_blocks(std::size_t num_inputs) {
  if (num_inputs <= 6) return 1;
  return 1ULL << (num_inputs - 6);
}

std::uint64_t lane_mask(std::uint64_t valid) {
  if (valid >= 64) return ~0ULL;
  return (1ULL << valid) - 1ULL;
}

}  // namespace dg::sim
