// Truth-table oracle tests: every Boolean connective agrees with direct
// evaluation on randomized functions, swept over seeds and variable counts
// with parameterized gtest.
#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

// Both fields are 64-bit so the struct has no padding: ctest lists each
// case with the raw bytes of its parameter, and padding bytes would make
// those listed names change from build to build.
struct SweepParam {
  std::uint64_t nvars;
  std::uint64_t seed;
};

class OpsSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OpsSweep, BinaryOpsMatchTruthTables) {
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed);
  for (int round = 0; round < 12; ++round) {
    const Bdd a = test::randomBdd(mgr, nvars, rng);
    const Bdd b = test::randomBdd(mgr, nvars, rng);
    const auto ta = test::truthTable(a, nvars);
    const auto tb = test::truthTable(b, nvars);

    const auto tAnd = test::truthTable(a & b, nvars);
    const auto tOr = test::truthTable(a | b, nvars);
    const auto tXor = test::truthTable(a ^ b, nvars);
    const auto tNot = test::truthTable(!a, nvars);
    for (std::size_t m = 0; m < ta.size(); ++m) {
      EXPECT_EQ(tAnd[m], ta[m] & tb[m]);
      EXPECT_EQ(tOr[m], ta[m] | tb[m]);
      EXPECT_EQ(tXor[m], ta[m] ^ tb[m]);
      EXPECT_EQ(tNot[m], 1 - ta[m]);
    }
  }
}

TEST_P(OpsSweep, IteMatchesTruthTables) {
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 31 + 5);
  for (int round = 0; round < 8; ++round) {
    const Bdd f = test::randomBdd(mgr, nvars, rng);
    const Bdd g = test::randomBdd(mgr, nvars, rng);
    const Bdd h = test::randomBdd(mgr, nvars, rng);
    const auto tf = test::truthTable(f, nvars);
    const auto tg = test::truthTable(g, nvars);
    const auto th = test::truthTable(h, nvars);
    const auto ti = test::truthTable(f.ite(g, h), nvars);
    for (std::size_t m = 0; m < tf.size(); ++m) {
      EXPECT_EQ(ti[m], tf[m] ? tg[m] : th[m]);
    }
  }
}

TEST_P(OpsSweep, CanonicityUnderRandomConstruction) {
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 77 + 1);
  for (int round = 0; round < 10; ++round) {
    const Bdd a = test::randomBdd(mgr, nvars, rng);
    const Bdd b = test::randomBdd(mgr, nvars, rng);
    // Equal truth tables imply identical handles (canonicity).
    if (test::truthTable(a, nvars) == test::truthTable(b, nvars)) {
      EXPECT_EQ(a, b);
    } else {
      EXPECT_NE(a, b);
    }
  }
  mgr.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpsSweep,
    ::testing::Values(SweepParam{2, 1}, SweepParam{3, 2}, SweepParam{4, 3},
                      SweepParam{5, 4}, SweepParam{6, 5}, SweepParam{6, 6},
                      SweepParam{7, 7}, SweepParam{8, 8}),
    [](const ::testing::TestParamInfo<SweepParam>& paramInfo) {
      return "v" + std::to_string(paramInfo.param.nvars) + "s" +
             std::to_string(paramInfo.param.seed);
    });

TEST(BddOps, AbsorptionAndIdempotence) {
  BddManager mgr;
  mgr.newVar();
  mgr.newVar();
  const Bdd x = mgr.var(0);
  const Bdd y = mgr.var(1);
  EXPECT_EQ(x & (x | y), x);
  EXPECT_EQ(x | (x & y), x);
  EXPECT_EQ(x & x, x);
  EXPECT_EQ(x | x, x);
}

TEST(BddOps, OperandOrderIrrelevant) {
  BddManager mgr;
  for (unsigned i = 0; i < 6; ++i) mgr.newVar();
  Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    const Bdd a = test::randomBdd(mgr, 6, rng);
    const Bdd b = test::randomBdd(mgr, 6, rng);
    EXPECT_EQ(a & b, b & a);
    EXPECT_EQ(a | b, b | a);
    EXPECT_EQ(a ^ b, b ^ a);
  }
}

}  // namespace
}  // namespace icb
