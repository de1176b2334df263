// Quantification: exists/forall against truth-table oracles, the AndExists
// fusion, and cube construction.
#include <gtest/gtest.h>

#include <type_traits>

#include "bdd/bdd.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

Bdd cubeOf(BddManager& mgr, std::vector<unsigned> vars) {
  return Bdd(&mgr, mgr.cubeE(vars));
}

// No padding: gtest names each case with the parameter's raw bytes, so a
// padded struct would put uninitialized bytes into the test names.
struct QuantParam {
  std::uint64_t nvars;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<QuantParam>);

class QuantSweep : public ::testing::TestWithParam<QuantParam> {};

TEST_P(QuantSweep, ExistsForallMatchOracle) {
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed);
  for (int round = 0; round < 10; ++round) {
    const Bdd f = test::randomBdd(mgr, nvars, rng);
    // Random subset of variables to quantify.
    std::vector<unsigned> qs;
    for (unsigned v = 0; v < nvars; ++v) {
      if (rng.coin()) qs.push_back(v);
    }
    const Bdd cube = cubeOf(mgr, qs);
    const Bdd ex = f.exists(cube);
    const Bdd fa = f.forall(cube);

    const auto tf = test::truthTable(f, nvars);
    const auto tex = test::truthTable(ex, nvars);
    const auto tfa = test::truthTable(fa, nvars);
    const std::size_t size = tf.size();
    for (std::size_t m = 0; m < size; ++m) {
      // Enumerate all assignments to the quantified vars on top of m.
      bool any = false;
      bool all = true;
      const std::size_t k = qs.size();
      for (std::size_t q = 0; q < (std::size_t{1} << k); ++q) {
        std::size_t m2 = m;
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t bit = std::size_t{1} << qs[i];
          m2 = ((q >> i) & 1u) != 0 ? (m2 | bit) : (m2 & ~bit);
        }
        any |= tf[m2] != 0;
        all &= tf[m2] != 0;
      }
      EXPECT_EQ(tex[m] != 0, any);
      EXPECT_EQ(tfa[m] != 0, all);
    }
  }
}

TEST_P(QuantSweep, AndExistsEqualsComposition) {
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 13 + 3);
  for (int round = 0; round < 10; ++round) {
    const Bdd f = test::randomBdd(mgr, nvars, rng);
    const Bdd g = test::randomBdd(mgr, nvars, rng);
    std::vector<unsigned> qs;
    for (unsigned v = 0; v < nvars; ++v) {
      if (rng.coin()) qs.push_back(v);
    }
    const Bdd cube = cubeOf(mgr, qs);
    EXPECT_EQ(f.andExists(g, cube), (f & g).exists(cube));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantSweep,
    ::testing::Values(QuantParam{3, 1}, QuantParam{4, 2}, QuantParam{5, 3},
                      QuantParam{6, 4}, QuantParam{7, 5}),
    [](const ::testing::TestParamInfo<QuantParam>& paramInfo) {
      return "v" + std::to_string(paramInfo.param.nvars) + "s" +
             std::to_string(paramInfo.param.seed);
    });

TEST(BddQuant, QuantifyingAbsentVariableIsIdentity) {
  BddManager mgr;
  for (unsigned i = 0; i < 4; ++i) mgr.newVar();
  const Bdd f = mgr.var(0) & mgr.var(1);
  EXPECT_EQ(f.exists(cubeOf(mgr, {2, 3})), f);
  EXPECT_EQ(f.forall(cubeOf(mgr, {2, 3})), f);
}

TEST(BddQuant, EmptyCubeIsIdentity) {
  BddManager mgr;
  mgr.newVar();
  const Bdd f = mgr.var(0);
  EXPECT_EQ(f.exists(mgr.one()), f);
  EXPECT_EQ(f.forall(mgr.one()), f);
}

TEST(BddQuant, ExistsOfConjunctionOfLiterals) {
  BddManager mgr;
  for (unsigned i = 0; i < 3; ++i) mgr.newVar();
  const Bdd f = mgr.var(0) & !mgr.var(1) & mgr.var(2);
  EXPECT_EQ(f.exists(cubeOf(mgr, {1})), mgr.var(0) & mgr.var(2));
  EXPECT_EQ(f.forall(cubeOf(mgr, {1})), mgr.zero());
}

TEST(BddQuant, CubeConstructionOrderIndependent) {
  BddManager mgr;
  for (unsigned i = 0; i < 5; ++i) mgr.newVar();
  EXPECT_EQ(cubeOf(mgr, {0, 2, 4}), cubeOf(mgr, {4, 0, 2}));
  EXPECT_EQ(cubeOf(mgr, {0, 2, 4}), mgr.var(0) & mgr.var(2) & mgr.var(4));
}

TEST(BddQuant, DualityExistsForall) {
  BddManager mgr;
  for (unsigned i = 0; i < 6; ++i) mgr.newVar();
  Rng rng(29);
  for (int i = 0; i < 15; ++i) {
    const Bdd f = test::randomBdd(mgr, 6, rng);
    const Bdd cube = cubeOf(mgr, {1, 3, 5});
    EXPECT_EQ(f.forall(cube), !((!f).exists(cube)));
  }
}

}  // namespace
}  // namespace icb
