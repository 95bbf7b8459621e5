// Environment-variable knobs shared by the benchmark harnesses so every
// bench binary can be scaled without recompiling:
//
//   DEEPGATE_SCALE   = tiny | small | paper  (default small)
//   DEEPGATE_EPOCHS  = <int>                 (override epoch count)
//   DEEPGATE_SEED    = <uint64>              (default 1)
//   DEEPGATE_THREADS = <int>                 (pool size in [1, 512] for
//                                             gnn::execute, simulation,
//                                             training and dataset builds;
//                                             default hardware concurrency,
//                                             1 = serial; kernels never use
//                                             it — util/thread_pool.hpp)
//   DEEPGATE_BENCH_JSON = <path>             (bench harness JSON output)
//   DEEPGATE_DATA_DIR = <path>               (on-disk dataset shard cache;
//                                             unset = caching disabled)
//   DEEPGATE_SIMD = scalar | generic | avx2 | native
//                                            (inference kernel backend;
//                                             default native = best the CPU
//                                             supports — nn/simd/dispatch.hpp)
//   DEEPGATE_ARENA = on | off                (no-grad forward buffer arena,
//                                             default on — nn/arena.hpp;
//                                             off = plain heap per forward)
//   DEEPGATE_LOG_LEVEL = error | warn | info | debug
//                                            (stderr log threshold, default
//                                             info — util/log.hpp)
//   DEEPGATE_METRICS = on | off              (metrics registry recording,
//                                             default on — obs/metrics.hpp;
//                                             bitwise-neutral either way)
//   DEEPGATE_TRACE = on | off                (request-scoped span tracing,
//                                             default off — obs/trace.hpp)
//   DEEPGATE_TRACE_BUF = <int>               (trace ring capacity in events,
//                                             default 65536)
#pragma once

#include <cstdint>
#include <string>

namespace dg::util {

enum class BenchScale { kTiny, kSmall, kPaper };

/// Parse DEEPGATE_SCALE (unknown values fall back to kSmall).
BenchScale bench_scale();

const char* bench_scale_name(BenchScale scale);

/// DEEPGATE_EPOCHS if set, else `fallback`.
int env_epochs(int fallback);

/// DEEPGATE_SEED if set, else `fallback`.
std::uint64_t env_seed(std::uint64_t fallback = 1);

/// Generic integer env lookup. The whole value must parse as a base-10
/// integer; partially-numeric strings ("4x") warn and return `fallback`.
long long env_int(const std::string& name, long long fallback);

/// Generic floating-point env lookup with the same strict-parse contract as
/// env_int: the whole value must parse ("0.5x" or "" warn and return
/// `fallback`).
double env_double(const std::string& name, double fallback);

/// True when `value` lies in [lo, hi]; otherwise warns that knob `name`
/// keeps its default and returns false. The one range check for integer
/// knobs: `if (knob_in_range(name, v, lo, hi)) opt = v;`.
bool knob_in_range(const std::string& name, long long value, long long lo, long long hi);

/// Generic string env lookup.
std::string env_str(const std::string& name, const std::string& fallback = {});

}  // namespace dg::util
