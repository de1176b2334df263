// The care-set simplifiers at the heart of the paper: Restrict and
// Constrain contracts, shrinking behaviour, and Theorem 3
// ("a | b is a tautology iff Restrict(a, !b) is a tautology").
#include <gtest/gtest.h>

#include <type_traits>

#include "bdd/bdd.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

// No padding: gtest names each case with the parameter's raw bytes, so a
// padded struct would put uninitialized bytes into the test names.
struct RestrictParam {
  std::uint64_t nvars;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<RestrictParam>);

class RestrictSweep : public ::testing::TestWithParam<RestrictParam> {};

TEST_P(RestrictSweep, RestrictContract) {
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    const Bdd f = test::randomBdd(mgr, nvars, rng);
    const Bdd c = test::randomBdd(mgr, nvars, rng);
    if (c.isZero()) continue;  // vacuous contract
    const Bdd r = f.restrictBy(c);
    // The defining property: agreement wherever the care set holds.
    EXPECT_EQ(r & c, f & c);
  }
}

TEST_P(RestrictSweep, ConstrainContract) {
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 3 + 11);
  for (int round = 0; round < 20; ++round) {
    const Bdd f = test::randomBdd(mgr, nvars, rng);
    const Bdd c = test::randomBdd(mgr, nvars, rng);
    if (c.isZero()) continue;
    const Bdd r = f.constrainBy(c);
    EXPECT_EQ(r & c, f & c);
  }
}

TEST_P(RestrictSweep, Theorem3RestrictTautology) {
  // Theorem 3: for any a, b: (a | b) == TRUE iff Restrict(a, !b) == TRUE.
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 7 + 23);
  int tautologies = 0;
  for (int round = 0; round < 60; ++round) {
    Bdd a = test::randomBdd(mgr, nvars, rng);
    Bdd b = test::randomBdd(mgr, nvars, rng);
    if (round % 3 == 0) b = (!a) | b;  // bias toward actual tautologies
    if ((!b).isZero()) continue;     // Restrict(a, FALSE) is unconstrained
    const bool disjTaut = (a | b).isOne();
    tautologies += disjTaut ? 1 : 0;
    EXPECT_EQ(a.restrictBy(!b).isOne(), disjTaut);
  }
  EXPECT_GT(tautologies, 0);  // the sweep exercised the interesting side
}

TEST_P(RestrictSweep, Theorem3ConstrainTautology) {
  const auto nvars = static_cast<unsigned>(GetParam().nvars);
  const std::uint64_t seed = GetParam().seed;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 9 + 41);
  for (int round = 0; round < 60; ++round) {
    Bdd a = test::randomBdd(mgr, nvars, rng);
    Bdd b = test::randomBdd(mgr, nvars, rng);
    if (round % 3 == 0) b = (!a) | b;
    if ((!b).isZero()) continue;
    EXPECT_EQ(a.constrainBy(!b).isOne(), (a | b).isOne());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RestrictSweep,
    ::testing::Values(RestrictParam{3, 1}, RestrictParam{4, 2},
                      RestrictParam{5, 3}, RestrictParam{6, 4},
                      RestrictParam{7, 5}, RestrictParam{8, 6}),
    [](const ::testing::TestParamInfo<RestrictParam>& paramInfo) {
      return "v" + std::to_string(paramInfo.param.nvars) + "s" +
             std::to_string(paramInfo.param.seed);
    });

TEST(BddRestrict, TrueCareSetIsIdentity) {
  BddManager mgr;
  for (unsigned i = 0; i < 4; ++i) mgr.newVar();
  Rng rng(5);
  const Bdd f = test::randomBdd(mgr, 4, rng);
  EXPECT_EQ(f.restrictBy(mgr.one()), f);
  EXPECT_EQ(f.constrainBy(mgr.one()), f);
}

TEST(BddRestrict, RestrictByItselfIsTrue) {
  BddManager mgr;
  for (unsigned i = 0; i < 4; ++i) mgr.newVar();
  const Bdd f = mgr.var(0) ^ mgr.var(2);
  EXPECT_TRUE(f.restrictBy(f).isOne());
  EXPECT_TRUE(f.constrainBy(f).isOne());
  EXPECT_TRUE(f.restrictBy(!f).isZero());
}

TEST(BddRestrict, RestrictShrinksWhenCareSetEliminatesVariables) {
  // f depends on x0 only through a region the care set rules out.
  BddManager mgr;
  for (unsigned i = 0; i < 3; ++i) mgr.newVar();
  const Bdd x0 = mgr.var(0);
  const Bdd x1 = mgr.var(1);
  const Bdd x2 = mgr.var(2);
  const Bdd f = x0.ite(x1, x2);
  const Bdd care = x0;  // only the x0 half matters
  const Bdd r = f.restrictBy(care);
  EXPECT_EQ(r, x1);  // sibling substitution removes the x0 test entirely
  EXPECT_LT(r.size(), f.size());
}

TEST(BddRestrict, CofactorViaRestrictLiteral) {
  BddManager mgr;
  for (unsigned i = 0; i < 5; ++i) mgr.newVar();
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    const Bdd f = test::randomBdd(mgr, 5, rng);
    for (unsigned v = 0; v < 5; ++v) {
      const Bdd c1 = f.cofactor(v, true);
      const Bdd c0 = f.cofactor(v, false);
      // Shannon decomposition reconstructs f.
      EXPECT_EQ(mgr.var(v).ite(c1, c0), f);
      // Cofactors do not mention the variable.
      for (const unsigned s : c1.support()) EXPECT_NE(s, v);
      for (const unsigned s : c0.support()) EXPECT_NE(s, v);
    }
  }
}

TEST(BddRestrict, ConstrainImageProperty) {
  // constrain(f, c) maps each x to f(pi_c(x)) -- on c it equals f.
  BddManager mgr;
  for (unsigned i = 0; i < 6; ++i) mgr.newVar();
  Rng rng(37);
  for (int i = 0; i < 20; ++i) {
    const Bdd f = test::randomBdd(mgr, 6, rng);
    const Bdd c = test::randomBdd(mgr, 6, rng);
    if (c.isZero()) continue;
    // If f covers c entirely then constrain is the constant TRUE test.
    if (c.implies(f)) {
      EXPECT_TRUE((c & f.constrainBy(c)).isOne() ||
                  c.implies(f.constrainBy(c)));
    }
  }
}

}  // namespace
}  // namespace icb
