#include "aig/aiger_io.hpp"

#include "data/generators_small.hpp"
#include "netlist/to_aig.hpp"
#include "sim/bitsim.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace dg::aig {
namespace {

TEST(AigerIo, WriteSmall) {
  Aig a;
  const Lit x = make_lit(a.add_input(), false);
  const Lit y = make_lit(a.add_input(), false);
  a.add_output(lit_not(a.add_and(x, y)));  // NAND
  const std::string text = write_aiger(a);
  EXPECT_EQ(text.substr(0, 12), "aag 3 2 0 1 ");
}

TEST(AigerIo, ParseKnownNand) {
  const std::string text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n";
  std::string err;
  auto a = read_aiger(text, &err);
  ASSERT_TRUE(a.has_value()) << err;
  EXPECT_EQ(a->num_inputs(), 2U);
  EXPECT_EQ(a->num_ands(), 1U);
  // NAND truth table.
  const auto words = sim::simulate_aig(*a, {0xAULL, 0xCULL});
  EXPECT_EQ(sim::lit_word(words, a->outputs()[0]) & 0xFULL, 0x7ULL);
}

TEST(AigerIo, RejectsLatches) {
  std::string err;
  EXPECT_FALSE(read_aiger("aag 1 0 1 0 0\n2 3\n", &err).has_value());
  EXPECT_NE(err.find("latch"), std::string::npos);
}

TEST(AigerIo, RejectsBadHeader) {
  std::string err;
  EXPECT_FALSE(read_aiger("aig 1 1 0 0 0\n", &err).has_value());
  EXPECT_FALSE(read_aiger("", &err).has_value());
}

TEST(AigerIo, RejectsTruncated) {
  std::string err;
  EXPECT_FALSE(read_aiger("aag 3 2 0 1 1\n2\n4\n7\n", &err).has_value());
}

// Hostile headers are rejected from the counts alone, before any
// allocation: M + 1 must not wrap, and a 23-byte file must not be able to
// request hundreds of megabytes.
TEST(AigerIo, RejectsUnboundedHeaderCounts) {
  std::string err;
  EXPECT_FALSE(read_aiger("aag 18446744073709551615 0 0 0 0", &err).has_value());
  EXPECT_NE(err.find("field M"), std::string::npos) << err;
  EXPECT_FALSE(read_aiger("aag 200000000 0 0 0 0", &err).has_value());
  EXPECT_NE(err.find("field M"), std::string::npos) << err;
  EXPECT_FALSE(read_aiger("aag 200000000 200000000 0 0 0\n2\n", &err).has_value());
  EXPECT_NE(err.find("field I"), std::string::npos) << err;
  EXPECT_FALSE(read_aiger("aag 0 0 0 200000000 0\n2\n", &err).has_value());
  EXPECT_NE(err.find("field O"), std::string::npos) << err;
  EXPECT_FALSE(read_aiger("aag 99 0 0 0 99\n2 0 0\n", &err).has_value());
  EXPECT_NE(err.find("field A"), std::string::npos) << err;
  // The smallest well-formed files still parse.
  EXPECT_TRUE(read_aiger("aag 0 0 0 0 0", &err).has_value()) << err;
  EXPECT_TRUE(read_aiger("aag 1 1 0 1 0\n2\n2", &err).has_value()) << err;
}

TEST(AigerIo, RejectsUndefinedLiteral) {
  std::string err;
  // output literal 99 never defined
  EXPECT_FALSE(read_aiger("aag 3 2 0 1 1\n2\n4\n99\n6 2 4\n", &err).has_value());
}

TEST(AigerIo, RoundTripPreservesSemantics) {
  // Property: write(read(x)) simulates identically to x on random patterns,
  // across randomized generated circuits.
  util::Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const Aig original = netlist::to_aig(data::gen_opencores_like(rng));
    const std::string text = write_aiger(original);
    std::string err;
    auto parsed = read_aiger(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    ASSERT_EQ(parsed->num_inputs(), original.num_inputs());
    ASSERT_EQ(parsed->num_outputs(), original.num_outputs());

    std::vector<std::uint64_t> patterns(original.num_inputs());
    for (auto& w : patterns) w = rng.next_u64();
    const auto w1 = sim::simulate_aig(original, patterns);
    const auto w2 = sim::simulate_aig(*parsed, patterns);
    for (std::size_t o = 0; o < original.num_outputs(); ++o) {
      EXPECT_EQ(sim::lit_word(w1, original.outputs()[o]),
                sim::lit_word(w2, parsed->outputs()[o]));
    }
  }
}

TEST(AigerIo, FileRoundTrip) {
  Aig a;
  const Lit x = make_lit(a.add_input("alpha"), false);
  const Lit y = make_lit(a.add_input("beta"), false);
  a.add_output(a.make_xor(x, y), "gamma");
  const std::string path = "/tmp/dg_aiger_test.aag";
  ASSERT_TRUE(write_aiger_file(a, path));
  std::string err;
  auto b = read_aiger_file(path, &err);
  ASSERT_TRUE(b.has_value()) << err;
  EXPECT_EQ(b->num_ands(), a.num_ands());
  std::remove(path.c_str());
}

TEST(AigerIo, ConstantOutputsSurvive) {
  Aig a;
  (void)a.add_input();
  a.add_output(kLitTrue, "t");
  a.add_output(kLitFalse, "f");
  const std::string text = write_aiger(a);
  std::string err;
  auto b = read_aiger(text, &err);
  ASSERT_TRUE(b.has_value()) << err;
  EXPECT_EQ(b->outputs()[0], kLitTrue);
  EXPECT_EQ(b->outputs()[1], kLitFalse);
}

}  // namespace
}  // namespace dg::aig
