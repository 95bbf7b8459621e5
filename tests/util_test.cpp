#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

namespace dg::util {
namespace {

void benchmark_guard(double& v) { asm volatile("" : "+m"(v)); }

// -- Logging -------------------------------------------------------------------

// DEEPGATE_LOG_LEVEL resolves lazily on the FIRST log_level() query and is
// cached for the process, so this suite is declared first in this file: it
// must run before any test that logs (Env.ScaleParsing warns on a bogus
// scale, which would consume the one-shot resolution).
TEST(Log, LevelEnvStrictParseRejectsUnknownValues) {
  ::setenv("DEEPGATE_LOG_LEVEL", "loud", 1);
  // Strict parse: an unknown value warns and keeps the default info — it
  // must not be prefix-matched or silently accepted.
  EXPECT_EQ(log_level(), LogLevel::kInfo);
  ::unsetenv("DEEPGATE_LOG_LEVEL");
}

TEST(Log, SetLogLevelOverridesAndFilters) {
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold rate-limited warns return false WITHOUT consuming the
  // limiter's token.
  LogRateLimit limit(3600.0);
  EXPECT_FALSE(log_warn_limited(limit, "suppressed by level"));
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(log_warn_limited(limit, "util_test: expected warn line"));
  set_log_level(LogLevel::kInfo);
}

TEST(Log, RateLimitAllowsOncePerIntervalAndCountsSuppressed) {
  LogRateLimit limit(0.05);  // 50 ms
  std::uint64_t suppressed = 123;
  EXPECT_TRUE(limit.allow(&suppressed));
  EXPECT_EQ(suppressed, 0u);
  EXPECT_FALSE(limit.allow());
  EXPECT_FALSE(limit.allow());
  EXPECT_FALSE(limit.allow());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(limit.allow(&suppressed));
  EXPECT_EQ(suppressed, 3u);  // the three rejected calls are reported

  // A zero interval never limits (and never reports suppressions).
  LogRateLimit off(0.0);
  for (int i = 0; i < 4; ++i) {
    suppressed = 99;
    EXPECT_TRUE(off.allow(&suppressed));
    EXPECT_EQ(suppressed, 0u);
  }
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Model", "Error"});
  t.add_row({"GCN", "0.1386"});
  t.add_row({"DeepGate", "0.0204"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Model"), std::string::npos);
  EXPECT_NE(out.find("DeepGate"), std::string::npos);
  // Every non-rule line should have the same width prefix alignment: the
  // second column starts at the same offset in header and rows.
  const auto header_pos = out.find("Error");
  const auto row_pos = out.find("0.0204");
  EXPECT_EQ(header_pos % (out.find('\n') + 1), row_pos % (out.find('\n') + 1));
}

TEST(TextTable, RuleSeparatesSections) {
  TextTable t({"A"});
  t.add_row({"x"});
  t.add_rule();
  t.add_row({"y"});
  const std::string out = t.render();
  // Header rule + explicit rule.
  int rules = 0;
  for (std::size_t pos = 0; (pos = out.find("---", pos)) != std::string::npos; ++pos) ++rules;
  EXPECT_GE(rules, 2);
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fmt_fixed(0.020401, 4), "0.0204");
  EXPECT_EQ(fmt_fixed(1.0, 2), "1.00");
}

TEST(Format, KiloSuffix) {
  EXPECT_EQ(fmt_kilo(999), "999");
  EXPECT_EQ(fmt_kilo(23700), "23.7K");
  EXPECT_EQ(fmt_kilo(47300), "47.3K");
}

TEST(Env, ScaleParsing) {
  ::setenv("DEEPGATE_SCALE", "tiny", 1);
  EXPECT_EQ(bench_scale(), BenchScale::kTiny);
  ::setenv("DEEPGATE_SCALE", "paper", 1);
  EXPECT_EQ(bench_scale(), BenchScale::kPaper);
  ::setenv("DEEPGATE_SCALE", "bogus", 1);
  EXPECT_EQ(bench_scale(), BenchScale::kSmall);
  ::unsetenv("DEEPGATE_SCALE");
  EXPECT_EQ(bench_scale(), BenchScale::kSmall);
}

TEST(Env, IntRejectsPartiallyConsumedValues) {
  ::setenv("DEEPGATE_TEST_INT", "4", 1);
  EXPECT_EQ(env_int("DEEPGATE_TEST_INT", -1), 4);
  ::setenv("DEEPGATE_TEST_INT", "-17", 1);
  EXPECT_EQ(env_int("DEEPGATE_TEST_INT", -1), -17);
  // Trailing garbage must not silently become the numeric prefix.
  ::setenv("DEEPGATE_TEST_INT", "4x", 1);
  EXPECT_EQ(env_int("DEEPGATE_TEST_INT", -1), -1);
  ::setenv("DEEPGATE_TEST_INT", "1e3", 1);
  EXPECT_EQ(env_int("DEEPGATE_TEST_INT", -1), -1);
  ::setenv("DEEPGATE_TEST_INT", "3.5", 1);
  EXPECT_EQ(env_int("DEEPGATE_TEST_INT", -1), -1);
  ::setenv("DEEPGATE_TEST_INT", "", 1);
  EXPECT_EQ(env_int("DEEPGATE_TEST_INT", 7), 7);
  ::setenv("DEEPGATE_TEST_INT", "nope", 1);
  EXPECT_EQ(env_int("DEEPGATE_TEST_INT", 7), 7);
  ::unsetenv("DEEPGATE_TEST_INT");
  EXPECT_EQ(env_int("DEEPGATE_TEST_INT", 9), 9);
}

TEST(Env, EpochOverride) {
  ::unsetenv("DEEPGATE_EPOCHS");
  EXPECT_EQ(env_epochs(12), 12);
  ::setenv("DEEPGATE_EPOCHS", "3", 1);
  EXPECT_EQ(env_epochs(12), 3);
  ::unsetenv("DEEPGATE_EPOCHS");
}

// DEEPGATE_THREADS is bounded like the serve knobs: a value outside
// [1, kMaxThreads] warns and keeps the hardware-concurrency default instead
// of being clamped into range.
TEST(Env, ThreadsKnobOutOfRangeWarnsAndKeepsDefault) {
  const std::string saved = env_str("DEEPGATE_THREADS");
  ::unsetenv("DEEPGATE_THREADS");
  const int fallback = default_num_threads();
  EXPECT_GE(fallback, 1);
  for (const char* bad : {"0", "-3", "600"}) {
    ::setenv("DEEPGATE_THREADS", bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(default_num_threads(), fallback) << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DEEPGATE_THREADS=" + std::string(bad) + " is outside [1, 512]"),
              std::string::npos)
        << bad << ": " << err;
  }
  ::setenv("DEEPGATE_THREADS", "4", 1);
  EXPECT_EQ(default_num_threads(), 4);
  ::setenv("DEEPGATE_THREADS", "512", 1);
  EXPECT_EQ(default_num_threads(), kMaxThreads);
  if (saved.empty())
    ::unsetenv("DEEPGATE_THREADS");
  else
    ::setenv("DEEPGATE_THREADS", saved.c_str(), 1);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  benchmark_guard(sink);
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace dg::util
