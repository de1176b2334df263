// Simultaneous multi-care-set Restrict (the paper's Section V wish).
#include <gtest/gtest.h>

#include <type_traits>

#include "ici/simplify.hpp"
#include "sym/bitvector.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

struct MultiParam {
  unsigned nvars;
  unsigned count;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<MultiParam>);

class MultiRestrictSweep : public ::testing::TestWithParam<MultiParam> {};

TEST_P(MultiRestrictSweep, ContractHoldsAgainstExplicitConjunction) {
  const auto [nvars, count, seed] = GetParam();
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    const Bdd f = test::randomBdd(mgr, nvars, rng, 3);
    std::vector<Bdd> cares;
    Bdd conj = mgr.one();
    for (unsigned i = 0; i < count; ++i) {
      cares.push_back(test::randomBdd(mgr, nvars, rng, 3));
      conj &= cares.back();
    }
    const Bdd r = f.restrictByAll(cares);
    // The Restrict contract against the (explicitly built) conjunction.
    EXPECT_EQ(r & conj, f & conj) << "round " << round;
  }
}

TEST_P(MultiRestrictSweep, SingleCareMatchesClassicRestrict) {
  const auto [nvars, count, seed] = GetParam();
  (void)count;
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 3 + 7);
  for (int round = 0; round < 15; ++round) {
    const Bdd f = test::randomBdd(mgr, nvars, rng, 3);
    const Bdd c = test::randomBdd(mgr, nvars, rng, 3);
    const std::vector<Bdd> one{c};
    EXPECT_EQ(f.restrictByAll(one), f.restrictBy(c));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiRestrictSweep,
    ::testing::Values(MultiParam{4, 2, 1}, MultiParam{6, 3, 2},
                      MultiParam{8, 3, 3}, MultiParam{8, 5, 4},
                      MultiParam{10, 4, 5}),
    [](const ::testing::TestParamInfo<MultiParam>& paramInfo) {
      return "v" + std::to_string(paramInfo.param.nvars) + "c" +
             std::to_string(paramInfo.param.count) + "s" +
             std::to_string(paramInfo.param.seed);
    });

TEST(RestrictMulti, PaperSectionVScenario) {
  // The motivating case: f restricted by c1 alone or c2 alone does not
  // shrink (each care set individually is too weak), but against c1 & c2
  // simultaneously the function collapses.  Construct: f = parity over the
  // x block selected by region bits; c1 and c2 each pin one region bit.
  BddManager mgr;
  std::vector<Bdd> v;
  for (unsigned i = 0; i < 8; ++i) v.push_back(mgr.var(mgr.newVar()));
  const Bdd r1 = v[0];
  const Bdd r2 = v[1];
  // f: in region (r1 & r2) a single literal, elsewhere a wide parity.
  const Bdd wide = v[2] ^ v[3] ^ v[4] ^ v[5] ^ v[6] ^ v[7];
  const Bdd f = (r1 & r2).ite(v[2], wide);
  const Bdd c1 = r1;
  const Bdd c2 = r2;

  const Bdd multi = f.restrictByAll(std::vector<Bdd>{c1, c2});
  // Inside c1 & c2 the function is just v[2]; the simultaneous restrict
  // must find that even though each care alone leaves the wide parity.
  EXPECT_EQ(multi, v[2]);
  EXPECT_LT(multi.size(), f.restrictBy(c1).size());
  EXPECT_LT(multi.size(), f.restrictBy(c2).size());
}

TEST(RestrictMulti, EmptyAndTrivialCareLists) {
  BddManager mgr;
  for (unsigned i = 0; i < 4; ++i) mgr.newVar();
  Rng rng(9);
  const Bdd f = test::randomBdd(mgr, 4, rng);
  EXPECT_EQ(f.restrictByAll(std::vector<Bdd>{}), f);
  EXPECT_EQ(f.restrictByAll(std::vector<Bdd>{mgr.one(), mgr.one()}), f);
  // A FALSE member makes the contract vacuous; identity is the safe result.
  EXPECT_EQ(f.restrictByAll(std::vector<Bdd>{mgr.zero(), mgr.var(0)}), f);
}

TEST(RestrictMulti, SubsumesAtLeastOnePairwiseOrder) {
  // Multi-restrict by {c1, c2} satisfies the same contract as any pairwise
  // sequence; verify on random instances that it is never *wrong* and
  // frequently at least as small as the best sequential order.
  BddManager mgr;
  for (unsigned i = 0; i < 8; ++i) mgr.newVar();
  Rng rng(31);
  int atLeastAsGood = 0;
  int total = 0;
  for (int round = 0; round < 40; ++round) {
    const Bdd f = test::randomBdd(mgr, 8, rng, 3);
    const Bdd c1 = test::randomBdd(mgr, 8, rng, 3);
    const Bdd c2 = test::randomBdd(mgr, 8, rng, 3);
    if ((c1 & c2).isZero()) continue;
    ++total;
    const Bdd multi = f.restrictByAll(std::vector<Bdd>{c1, c2});
    const std::uint64_t seq =
        std::min(f.restrictBy(c1).restrictBy(c2).size(),
                 f.restrictBy(c2).restrictBy(c1).size());
    if (multi.size() <= seq) ++atLeastAsGood;
  }
  ASSERT_GT(total, 20);
  // Not a theorem, but the heuristic should win or tie most of the time.
  EXPECT_GT(atLeastAsGood * 10, total * 5);
}

TEST(RestrictMulti, SimultaneousSimplifyPreservesConjunction) {
  BddManager mgr;
  for (unsigned i = 0; i < 10; ++i) mgr.newVar();
  Rng rng(17);
  for (int round = 0; round < 10; ++round) {
    ConjunctList list(&mgr);
    for (int i = 0; i < 5; ++i) {
      list.push(test::randomBdd(mgr, 10, rng, 3));
    }
    const Bdd before = list.evaluate();
    SimplifyOptions options;
    options.simultaneous = true;
    simplifyList(list, options);
    EXPECT_EQ(list.evaluate(), before);
  }
}

TEST(RestrictMulti, SimultaneousModeCanBeatPairwiseMode) {
  // The Section V scenario embedded in a list: pairwise simplification gets
  // stuck, the simultaneous pass collapses the big member.
  BddManager mgr;
  std::vector<Bdd> v;
  for (unsigned i = 0; i < 8; ++i) v.push_back(mgr.var(mgr.newVar()));
  const Bdd wide = v[2] ^ v[3] ^ v[4] ^ v[5] ^ v[6] ^ v[7];
  const Bdd f = (v[0] & v[1]).ite(v[2], wide);

  ConjunctList pairwise(&mgr, {f, v[0], v[1]});
  ConjunctList simultaneous = pairwise;

  SimplifyOptions p;
  simplifyList(pairwise, p);
  SimplifyOptions s;
  s.simultaneous = true;
  simplifyList(simultaneous, s);

  EXPECT_EQ(simultaneous.evaluate(), pairwise.evaluate());
  // The simultaneous pass can never lose to pairwise here (and wins when
  // the pairwise pass rejects both intermediate growths).
  EXPECT_LE(simultaneous.sharedNodeCount(), pairwise.sharedNodeCount());
}

}  // namespace
}  // namespace icb
