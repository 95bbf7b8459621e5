// Runtime SIMD dispatch for the numeric kernels.
//
// The public kernels in nn/kernels.hpp route their inner loops through one
// of three backends:
//
//   scalar   — the original loops, kept verbatim as the reference oracle
//   generic  — portable register-blocked loops (baseline ISA, no intrinsics)
//   avx2     — AVX2 intrinsics (x86-64 only; the TU is compiled with
//              -mavx2 -mfma -ffp-contract=off and is entered only after a
//              runtime CPUID check, so the rest of the build stays
//              baseline-ISA)
//
// Selection happens once, lazily, from the DEEPGATE_SIMD environment
// variable:
//
//   DEEPGATE_SIMD = native   pick the best backend this CPU supports (default)
//                 | scalar   force the scalar oracle (bit-exact pre-SIMD paths)
//                 | generic  force the portable blocked backend
//                 | avx2     force AVX2 (falls back to best available + warns
//                            when the CPU or build lacks it)
//
// Equivalence contract (enforced by the `kernels`-labeled test suites): all
// dispatched kernels are bitwise-equal across backends, except the
// sigmoid/tanh maps on avx2, which use a polynomial exp and carry a tested
// absolute-error bound (|simd - scalar| <= 2e-6 on the transcendental maps).
#pragma once

#include <string>

namespace dg::nn::kern {

struct KernelBackend;

enum class SimdLevel { kScalar = 0, kGeneric = 1, kAvx2 = 2 };

namespace simd {

/// Is this level runnable here (compiled in AND supported by the CPU)?
bool available(SimdLevel level);

/// Best runnable level (what DEEPGATE_SIMD=native resolves to).
SimdLevel best_available();

/// The level the kernels currently dispatch to.
SimdLevel active();

/// Force a level (test/bench knob; not thread-safe against in-flight
/// kernels). Unavailable levels fall back to best_available(). Returns the
/// previously active level so callers can restore it.
SimdLevel set_level(SimdLevel level);

const char* level_name(SimdLevel level);

/// Resolve a DEEPGATE_SIMD value ("scalar" | "generic" | "avx2" | "native";
/// unknown values resolve to native with a warning).
SimdLevel resolve(const std::string& value);

}  // namespace simd

/// The active backend table (lazily resolved from DEEPGATE_SIMD).
const KernelBackend& backend();

}  // namespace dg::nn::kern
