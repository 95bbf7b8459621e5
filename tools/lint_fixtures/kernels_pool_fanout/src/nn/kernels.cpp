// Seeded violation: an nn kernel that splits its rows across the thread
// pool instead of running on the calling thread. Must trip
// kernels-pool-fanout.
#include "util/thread_pool.hpp"

#include <cstdint>

void scale_rows(float* c, const float* a, float s, std::int64_t n) {
  dg::util::parallel_for(0, n, 1024, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) c[i] = a[i] * s;
  });
}
