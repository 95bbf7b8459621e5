#include "util/env.hpp"

#include "util/log.hpp"

#include <cstdlib>

namespace dg::util {

BenchScale bench_scale() {
  const char* v = std::getenv("DEEPGATE_SCALE");
  if (v == nullptr) return BenchScale::kSmall;
  const std::string s(v);
  if (s == "tiny") return BenchScale::kTiny;
  if (s == "paper") return BenchScale::kPaper;
  return BenchScale::kSmall;
}

const char* bench_scale_name(BenchScale scale) {
  switch (scale) {
    case BenchScale::kTiny: return "tiny";
    case BenchScale::kSmall: return "small";
    case BenchScale::kPaper: return "paper";
  }
  return "?";
}

long long env_int(const std::string& name, long long fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  // Reject partially-consumed values ("4x", "1e3", "  "): silently taking
  // the numeric prefix turns a typo into a different configuration.
  if (end == v || *end != '\0') {
    log_warn(name, "=\"", v, "\" is not an integer; using fallback ", fallback);
    return fallback;
  }
  return parsed;
}

bool knob_in_range(const std::string& name, long long value, long long lo, long long hi) {
  if (value >= lo && value <= hi) return true;
  log_warn(name, "=", value, " is outside [", lo, ", ", hi, "]; keeping the default");
  return false;
}

std::string env_str(const std::string& name, const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  return v == nullptr ? fallback : std::string(v);
}

int env_epochs(int fallback) {
  return static_cast<int>(env_int("DEEPGATE_EPOCHS", fallback));
}

std::uint64_t env_seed(std::uint64_t fallback) {
  return static_cast<std::uint64_t>(env_int("DEEPGATE_SEED", static_cast<long long>(fallback)));
}

}  // namespace dg::util
