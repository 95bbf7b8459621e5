#include "netlist/bench_io.hpp"

#include "data/generators_small.hpp"
#include "sim/bitsim.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace dg::netlist {
namespace {

TEST(BenchIo, ParseSimple) {
  const std::string text =
      "# comment line\n"
      "INPUT(a)\n"
      "INPUT(b)\n"
      "OUTPUT(f)\n"
      "f = NAND(a, b)\n";
  std::string err;
  auto nl = read_bench(text, &err);
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->inputs().size(), 2U);
  EXPECT_EQ(nl->outputs().size(), 1U);
  EXPECT_EQ(nl->gate(nl->outputs()[0]).type, GateType::kNand);
}

TEST(BenchIo, OutOfOrderDefinitions) {
  const std::string text =
      "INPUT(a)\n"
      "OUTPUT(g)\n"
      "g = NOT(f)\n"    // uses f before its definition
      "f = BUF(a)\n";
  std::string err;
  auto nl = read_bench(text, &err);
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->gate(nl->outputs()[0]).type, GateType::kNot);
}

TEST(BenchIo, RejectsUndefinedSignal) {
  std::string err;
  EXPECT_FALSE(read_bench("OUTPUT(f)\nf = AND(x, y)\n", &err).has_value());
}

TEST(BenchIo, RejectsUnknownGate) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\nf = FROB(a)\n", &err).has_value());
  EXPECT_NE(err.find("unknown gate"), std::string::npos);
}

TEST(BenchIo, RejectsCycle) {
  const std::string text =
      "INPUT(a)\n"
      "x = AND(a, y)\n"
      "y = AND(a, x)\n";
  std::string err;
  EXPECT_FALSE(read_bench(text, &err).has_value());
  EXPECT_NE(err.find("cyclic"), std::string::npos);
}

TEST(BenchIo, AcceptsAliases) {
  std::string err;
  auto nl = read_bench("INPUT(a)\nf = INV(a)\ng = BUFF(a)\nOUTPUT(f)\nOUTPUT(g)\n", &err);
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->gate(nl->outputs()[0]).type, GateType::kNot);
  EXPECT_EQ(nl->gate(nl->outputs()[1]).type, GateType::kBuf);
}

TEST(BenchIo, RoundTripPreservesSimulation) {
  util::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Netlist original = data::gen_iwls_like(rng);
    const std::string text = write_bench(original);
    std::string err;
    auto parsed = read_bench(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    ASSERT_EQ(parsed->inputs().size(), original.inputs().size());
    ASSERT_EQ(parsed->outputs().size(), original.outputs().size());
    // write_bench emits in topological order, so every gate keeps its id.
    ASSERT_EQ(parsed->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
      EXPECT_EQ(parsed->gate(static_cast<int>(i)).name, original.gate(static_cast<int>(i)).name);

    std::vector<std::uint64_t> patterns(original.inputs().size());
    for (auto& w : patterns) w = rng.next_u64();
    const auto w1 = sim::simulate_netlist(original, patterns);
    const auto w2 = sim::simulate_netlist(*parsed, patterns);
    for (std::size_t o = 0; o < original.outputs().size(); ++o) {
      EXPECT_EQ(w1[static_cast<std::size_t>(original.outputs()[o])],
                w2[static_cast<std::size_t>(parsed->outputs()[o])]);
    }
  }
}

TEST(BenchIo, CaseInsensitiveGateNames) {
  std::string err;
  auto nl = read_bench("INPUT(a)\nINPUT(b)\nf = nand(a, b)\nOUTPUT(f)\n", &err);
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->gate(nl->outputs()[0]).type, GateType::kNand);
}

// NOT/BUF take exactly one fanin. Two fanins used to parse, and then trip
// the Netlist's arity assert in a build with asserts on.
TEST(BenchIo, RejectsNotOrBufWithoutExactlyOneFanin) {
  for (const char* text : {"INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)\n",
                           "INPUT(a)\nINPUT(b)\ny = BUF(a, b)\nOUTPUT(y)\n",
                           "INPUT(a)\nINPUT(b)\ny = BUFF(a, b)\nOUTPUT(y)\n"}) {
    std::string err;
    EXPECT_FALSE(read_bench(text, &err).has_value()) << text;
    EXPECT_NE(err.find("line 3:"), std::string::npos) << err;
    EXPECT_NE(err.find("exactly one fanin"), std::string::npos) << err;
  }
}

TEST(BenchIo, RejectsRepeatedInput) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\nINPUT(b)\nINPUT(a)\nf = AND(a, b)\nOUTPUT(f)\n", &err)
                   .has_value());
  EXPECT_NE(err.find("line 3:"), std::string::npos) << err;
  EXPECT_NE(err.find("already defined on line 1"), std::string::npos) << err;
}

TEST(BenchIo, RejectsGateDefinedTwice) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\nINPUT(b)\n"
                          "y = AND(a, b)\n"
                          "# a comment line still counts\n"
                          "y = OR(a, b)\n"
                          "OUTPUT(y)\n",
                          &err)
                   .has_value());
  EXPECT_NE(err.find("line 5:"), std::string::npos) << err;
  EXPECT_NE(err.find("already defined on line 3"), std::string::npos) << err;
}

// An INPUT must not shadow a gate of the same name: here the gate is really a
// self-loop, which used to parse as NOT of the input.
TEST(BenchIo, RejectsInputShadowingAGate) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\na = NOT(a)\nOUTPUT(a)\n", &err).has_value());
  EXPECT_NE(err.find("line 2:"), std::string::npos) << err;
  EXPECT_NE(err.find("already defined on line 1"), std::string::npos) << err;
}

TEST(BenchIo, ErrorsNameTheirLine) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\n\nf = FROB(a)\n", &err).has_value());
  EXPECT_EQ(err.rfind("line 3:", 0), 0u) << err;
  EXPECT_FALSE(read_bench("INPUT(a)\nOUTPUT(g)\n", &err).has_value());
  EXPECT_EQ(err.rfind("line 2:", 0), 0u) << err;
  EXPECT_FALSE(read_bench("INPUT(a)\nx = AND(a, y)\ny = AND(a, x)\n", &err).has_value());
  EXPECT_EQ(err.rfind("line 2:", 0), 0u) << err;
}

// Definitions written last-first used to cost a rescan of every pending gate
// per resolved one, O(N^2): this chain took about two minutes to parse.
TEST(BenchIo, ReverseOrderedChainParsesInLinearTime) {
  constexpr int kGates = 50000;
  std::ostringstream os;
  os << "INPUT(a)\nINPUT(b)\nOUTPUT(g" << kGates << ")\n";
  for (int k = kGates; k > 1; --k) os << 'g' << k << " = AND(g" << k - 1 << ", b)\n";
  os << "g1 = AND(a, b)\n";
  const std::string text = os.str();
  std::string err;
  auto nl = read_bench(text, &err);
  ASSERT_TRUE(nl.has_value()) << err;
  ASSERT_EQ(nl->outputs().size(), 1U);
  const Gate& out = nl->gate(nl->outputs()[0]);
  EXPECT_EQ(out.name, "g50000");
  EXPECT_EQ(out.type, GateType::kAnd);
  EXPECT_EQ(nl->depth(), kGates);
}

}  // namespace
}  // namespace dg::netlist
