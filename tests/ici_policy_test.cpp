// Section III.A machinery: Restrict cross-simplification, the pairwise
// conjunction table, Figure 1's greedy evaluation, and the Theorem 2 exact
// pairwise cover -- all of which must preserve the denoted conjunction.
#include <gtest/gtest.h>

#include <type_traits>

#include "ici/evaluate_policy.hpp"
#include "ici/pair_cover.hpp"
#include "ici/pair_table.hpp"
#include "ici/simplify.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

ConjunctList randomList(BddManager& mgr, unsigned nvars, Rng& rng,
                        unsigned count) {
  ConjunctList list(&mgr);
  for (unsigned i = 0; i < count; ++i) {
    list.push(test::randomBdd(mgr, nvars, rng, 3));
  }
  return list;
}

struct PolicyParam {
  unsigned nvars;
  unsigned count;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<PolicyParam>);

class PolicySweep : public ::testing::TestWithParam<PolicyParam> {};

TEST_P(PolicySweep, SimplifyPreservesConjunction) {
  const auto [nvars, count, seed] = GetParam();
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed);
  for (int round = 0; round < 6; ++round) {
    ConjunctList list = randomList(mgr, nvars, rng, count);
    const Bdd before = list.evaluate();
    const SimplifyResult r = simplifyList(list);
    EXPECT_EQ(list.evaluate(), before);
    EXPECT_LE(r.sizeAfter, r.sizeBefore);
  }
}

TEST_P(PolicySweep, GreedyEvaluatePreservesConjunction) {
  const auto [nvars, count, seed] = GetParam();
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 5 + 1);
  for (int round = 0; round < 6; ++round) {
    ConjunctList list = randomList(mgr, nvars, rng, count);
    const Bdd before = list.evaluate();
    greedyEvaluate(list);
    EXPECT_EQ(list.evaluate(), before);
  }
}

TEST_P(PolicySweep, FullPolicyPreservesConjunction) {
  const auto [nvars, count, seed] = GetParam();
  BddManager mgr;
  for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
  Rng rng(seed * 11 + 7);
  for (int round = 0; round < 6; ++round) {
    ConjunctList list = randomList(mgr, nvars, rng, count);
    const Bdd before = list.evaluate();
    evaluateAndSimplify(list);
    EXPECT_EQ(list.evaluate(), before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicySweep,
    ::testing::Values(PolicyParam{4, 3, 1}, PolicyParam{6, 4, 2},
                      PolicyParam{8, 5, 3}, PolicyParam{8, 8, 4},
                      PolicyParam{10, 6, 5}),
    [](const ::testing::TestParamInfo<PolicyParam>& paramInfo) {
      return "v" + std::to_string(paramInfo.param.nvars) + "c" +
             std::to_string(paramInfo.param.count) + "s" +
             std::to_string(paramInfo.param.seed);
    });

TEST(PairTable, RatiosMatchDefinition) {
  BddManager mgr;
  for (unsigned i = 0; i < 6; ++i) mgr.newVar();
  const Bdd a = mgr.var(0) & mgr.var(1);
  const Bdd b = mgr.var(1) & mgr.var(2);
  const Bdd c = mgr.var(4);
  PairTable table(mgr, {a, b, c});
  const auto best = table.best();
  ASSERT_TRUE(best.has_value());
  const Bdd pij = table.conjuncts()[best->i] & table.conjuncts()[best->j];
  const std::vector<Bdd> pair{table.conjuncts()[best->i],
                              table.conjuncts()[best->j]};
  const double expected = static_cast<double>(pij.size()) /
                          static_cast<double>(sharedSize(pair));
  EXPECT_DOUBLE_EQ(best->ratio, expected);
}

TEST(PairTable, MergeShrinksCountAndKeepsSemantics) {
  BddManager mgr;
  for (unsigned i = 0; i < 8; ++i) mgr.newVar();
  Rng rng(13);
  std::vector<Bdd> items;
  Bdd all = mgr.one();
  for (int i = 0; i < 5; ++i) {
    items.push_back(test::randomBdd(mgr, 8, rng, 3));
    all &= items.back();
  }
  PairTable table(mgr, items);
  while (table.count() > 1) {
    const auto best = table.best();
    ASSERT_TRUE(best.has_value());
    table.merge(best->i, best->j);
  }
  EXPECT_EQ(table.conjuncts().front(), all);
}

TEST(GreedyEvaluate, MergesSubsumedConjuncts) {
  // x & (x|y): the pair conjunction equals x (smaller than the pair),
  // so the greedy loop must evaluate it.
  BddManager mgr;
  mgr.newVar();
  mgr.newVar();
  const Bdd x = mgr.var(0);
  ConjunctList list(&mgr, {x, x | mgr.var(1)});
  EvaluatePolicyOptions options;
  options.simplifyFirst = false;
  const auto r = greedyEvaluate(list, options);
  EXPECT_EQ(r.merges, 1u);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0], x);
}

TEST(GreedyEvaluate, ThresholdZeroNeverMerges) {
  BddManager mgr;
  for (unsigned i = 0; i < 6; ++i) mgr.newVar();
  // Disjoint-support conjuncts: every pair conjunction is strictly larger
  // than the shared size, so with threshold < 1 nothing merges.
  ConjunctList list(&mgr, {mgr.var(0) & mgr.var(1), mgr.var(2) & mgr.var(3),
                           mgr.var(4) & mgr.var(5)});
  EvaluatePolicyOptions options;
  options.growThreshold = 0.5;
  options.simplifyFirst = false;
  const auto r = greedyEvaluate(list, options);
  EXPECT_EQ(r.merges, 0u);
  EXPECT_EQ(list.size(), 3u);
}

TEST(GreedyEvaluate, HugeThresholdMergesEverything) {
  BddManager mgr;
  for (unsigned i = 0; i < 6; ++i) mgr.newVar();
  ConjunctList list(&mgr, {mgr.var(0), mgr.var(1), mgr.var(2), mgr.var(3)});
  EvaluatePolicyOptions options;
  options.growThreshold = 1e9;
  options.pairTable.buildCapFactor = 0.0;  // unbounded builds
  const auto r = greedyEvaluate(list, options);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(r.merges, 3u);
}

TEST(SimplifyList, RemovesImpliedConjuncts) {
  BddManager mgr;
  for (unsigned i = 0; i < 3; ++i) mgr.newVar();
  const Bdd x = mgr.var(0);
  // x (small) makes x | y redundant; simplification must expose the TRUE.
  ConjunctList list(&mgr, {x, x | mgr.var(1), mgr.var(2)});
  simplifyList(list);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.evaluate(), x & mgr.var(2));
}

TEST(SimplifyList, ExposesContradictionAsFalse) {
  BddManager mgr;
  for (unsigned i = 0; i < 2; ++i) mgr.newVar();
  const Bdd x = mgr.var(0);
  ConjunctList list(&mgr, {x, !x});
  simplifyList(list);
  EXPECT_TRUE(list.isFalse());
}

TEST(PairCover, OptimalCoverBeatsOrMatchesNaive) {
  BddManager mgr;
  for (unsigned i = 0; i < 8; ++i) mgr.newVar();
  Rng rng(17);
  for (int round = 0; round < 5; ++round) {
    ConjunctList list = randomList(mgr, 8, rng, 6);
    list.normalize();
    if (list.size() < 2) continue;
    const PairCoverResult cover = optimalPairCover(list);
    // The all-singletons cover is feasible, so the optimum can't exceed it.
    std::uint64_t naive = 0;
    for (const auto s : list.memberSizes()) naive += s;
    EXPECT_LE(cover.additiveCost, naive);
    // Applying the cover preserves the conjunction.
    const ConjunctList applied = applyPairCover(list, cover);
    EXPECT_EQ(applied.evaluate(), list.evaluate());
  }
}

TEST(PairCover, RejectsOversizedLists) {
  BddManager mgr;
  mgr.newVar();
  ConjunctList list(&mgr);
  for (int i = 0; i < 25; ++i) list.push(mgr.var(0));
  EXPECT_THROW(optimalPairCover(list), BddUsageError);
}

TEST(PairCover, SingletonList) {
  BddManager mgr;
  mgr.newVar();
  ConjunctList list(&mgr, {mgr.var(0)});
  const PairCoverResult cover = optimalPairCover(list);
  EXPECT_EQ(cover.cover.size(), 1u);
  EXPECT_EQ(cover.additiveCost, mgr.var(0).size());
}

}  // namespace
}  // namespace icb
