// Ones-counting for the probability estimators (probability.cpp). The
// x86-64 baseline ISA has no popcount instruction, so std::popcount compiles
// to a call into libgcc's software count there. The estimators therefore
// run their blocked core in a target("popcnt") instantiation when CPUID
// reports the instruction, and on std::popcount everywhere else; the
// choice is made once per process, with no build flag and no knob. Both
// counts are exact, so the estimates are bit-identical on either path.
#pragma once

#include <cstdint>

namespace dg::sim::detail {

#if defined(__x86_64__) || defined(__i386__)
/// Ones in `w` by the POPCNT instruction. Call only where
/// has_hardware_popcount() is true; it inlines only into functions built
/// for the same target.
[[gnu::target("popcnt")]] inline int hardware_popcount(std::uint64_t w) {
  return __builtin_popcountll(w);
}
#endif

/// True when this CPU has a popcount instruction that hardware_popcount
/// emits (x86 POPCNT), checked once. Always false off x86, where only the
/// portable count is compiled.
inline bool has_hardware_popcount() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("popcnt");
  return has;
#else
  return false;
#endif
}

}  // namespace dg::sim::detail
