#include "nn/simd/dispatch.hpp"

#include "nn/simd/backend.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>

namespace dg::nn::kern {
namespace {

bool cpu_has_avx2_and_fma() {
#if defined(__x86_64__) || defined(__i386__)
  // Both bits: the AVX2 TU is compiled with -mavx2 -mfma, so the compiler
  // may emit FMA for intrinsic-adjacent scaffolding even though the kernels
  // themselves use mul+add.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelBackend* table_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &scalar_backend();
    case SimdLevel::kGeneric:
      return &generic_backend();
    case SimdLevel::kAvx2:
      return avx2_backend();
  }
  return &scalar_backend();
}

std::string lowered(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

SimdLevel level_from_env() {
  return simd::resolve(lowered(util::env_str("DEEPGATE_SIMD", "native")));
}

// The active table, published once lazily and swappable by set_level (a
// test/bench knob; callers must not have kernels in flight when swapping).
std::atomic<const KernelBackend*> g_backend{nullptr};
std::atomic<SimdLevel> g_level{SimdLevel::kScalar};
std::atomic<bool> g_initialized{false};

void ensure_initialized() {
  if (g_initialized.load(std::memory_order_acquire)) return;
  static const bool once = [] {
    const SimdLevel level = level_from_env();
    g_level.store(level, std::memory_order_relaxed);
    g_backend.store(table_for(level), std::memory_order_relaxed);
    g_initialized.store(true, std::memory_order_release);
    return true;
  }();
  (void)once;
}

}  // namespace

namespace simd {

bool available(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
    case SimdLevel::kGeneric:
      return true;
    case SimdLevel::kAvx2:
      return avx2_backend() != nullptr && cpu_has_avx2_and_fma();
  }
  return false;
}

SimdLevel best_available() {
  return available(SimdLevel::kAvx2) ? SimdLevel::kAvx2 : SimdLevel::kGeneric;
}

SimdLevel active() {
  ensure_initialized();
  return g_level.load(std::memory_order_relaxed);
}

SimdLevel set_level(SimdLevel level) {
  ensure_initialized();
  if (!available(level)) {
    util::log_warn("DEEPGATE_SIMD: level '", level_name(level),
                   "' not available on this build/CPU; using '",
                   level_name(best_available()), "'");
    level = best_available();
  }
  const SimdLevel previous = g_level.exchange(level, std::memory_order_relaxed);
  g_backend.store(table_for(level), std::memory_order_relaxed);
  return previous;
}

const char* level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kGeneric:
      return "generic";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

SimdLevel resolve(const std::string& value) {
  if (value == "scalar") return SimdLevel::kScalar;
  if (value == "generic") return SimdLevel::kGeneric;
  if (value == "avx2") {
    if (available(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
    util::log_warn("DEEPGATE_SIMD=avx2 requested but unavailable on this build/CPU; ",
                   "using '", level_name(best_available()), "'");
    return best_available();
  }
  if (value != "native" && !value.empty())
    util::log_warn("DEEPGATE_SIMD: unknown value '", value, "'; using native");
  return best_available();
}

}  // namespace simd

const KernelBackend& backend() {
  ensure_initialized();
  return *g_backend.load(std::memory_order_relaxed);
}

}  // namespace dg::nn::kern
