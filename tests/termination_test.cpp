// Section III.B exact termination test: the paper's tautology procedure on
// implicit disjunctions (every cofactor-choice strategy, Theorem 3 shortcut
// on and off) and the node-free tuple recursion behind implies/equal --
// each validated against explicitly built conjunctions and against the
// other.
#include <gtest/gtest.h>

#include <type_traits>

#include "ici/termination.hpp"
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

// No padding (hence the 32-bit flag): gtest names each case with the
// parameter's raw bytes, so a padded struct would put uninitialized bytes
// into the test names.
struct TermParam {
  CofactorChoice choice;
  std::uint32_t shortcut;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TermParam>);

class TerminationSweep : public ::testing::TestWithParam<TermParam> {};

TEST_P(TerminationSweep, TautologyAgreesWithExplicitDisjunction) {
  const auto [choice, shortcut, seed] = GetParam();
  BddManager mgr;
  constexpr unsigned kVars = 8;
  for (unsigned i = 0; i < kVars; ++i) mgr.newVar();
  Rng rng(seed);
  TerminationOptions options;
  options.cofactorChoice = choice;
  options.restrictShortcut = shortcut != 0;
  TerminationChecker checker(mgr, options);

  int tautCount = 0;
  for (int round = 0; round < 60; ++round) {
    std::vector<Bdd> keep;
    std::vector<Edge> disj;
    Bdd expected = mgr.zero();
    const unsigned count = 2 + static_cast<unsigned>(rng.below(4));
    for (unsigned i = 0; i < count; ++i) {
      Bdd f = test::randomBdd(mgr, kVars, rng, 3);
      if (round % 4 == 0 && i + 1 == count) {
        f = f | !expected;  // bias toward tautologies
      }
      keep.push_back(f);
      disj.push_back(f.edge());
      expected |= f;
    }
    const bool taut = expected.isOne();
    tautCount += taut ? 1 : 0;
    EXPECT_EQ(checker.disjunctionIsTautology(disj), taut)
        << "round " << round;
  }
  EXPECT_GT(tautCount, 5);
  EXPECT_LT(tautCount, 55);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TerminationSweep,
    ::testing::Values(
        TermParam{CofactorChoice::kTopOfFirst, true, 1},
        TermParam{CofactorChoice::kTopOfFirst, false, 2},
        TermParam{CofactorChoice::kHighestLevel, true, 3},
        TermParam{CofactorChoice::kHighestLevel, false, 4},
        TermParam{CofactorChoice::kMostCommon, true, 5},
        TermParam{CofactorChoice::kMostCommon, false, 6}),
    [](const ::testing::TestParamInfo<TermParam>& paramInfo) {
      std::string name;
      switch (paramInfo.param.choice) {
        case CofactorChoice::kTopOfFirst: name = "TopOfFirst"; break;
        case CofactorChoice::kHighestLevel: name = "HighestLevel"; break;
        case CofactorChoice::kMostCommon: name = "MostCommon"; break;
      }
      name += paramInfo.param.shortcut ? "Shortcut" : "Literal";
      name += "s" + std::to_string(paramInfo.param.seed);
      return name;
    });

// implies/equal run the node-free tuple recursion, which reads neither the
// cofactor choice nor the Theorem-3 shortcut: these sweep seeds only.
class ImplicationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImplicationSweep, ImplicationAgreesWithExplicitConjunction) {
  const std::uint64_t seed = GetParam();
  BddManager mgr;
  constexpr unsigned kVars = 8;
  for (unsigned i = 0; i < kVars; ++i) mgr.newVar();
  Rng rng(seed * 3 + 1);
  TerminationChecker checker(mgr);

  int implCount = 0;
  for (int round = 0; round < 40; ++round) {
    ConjunctList x = randomList(mgr, kVars, rng, 3);
    Bdd y = test::randomBdd(mgr, kVars, rng, 3);
    if (round % 3 == 0) y = y | x.evaluate();  // bias toward implications
    const bool expected = x.evaluate().implies(y);
    implCount += expected ? 1 : 0;
    EXPECT_EQ(checker.implies(x, y), expected) << "round " << round;
  }
  EXPECT_GT(implCount, 3);
}

TEST_P(ImplicationSweep, ListEqualityAgreesWithExplicitConjunctions) {
  const std::uint64_t seed = GetParam();
  BddManager mgr;
  constexpr unsigned kVars = 8;
  for (unsigned i = 0; i < kVars; ++i) mgr.newVar();
  Rng rng(seed * 7 + 5);
  TerminationChecker checker(mgr);

  int equalCount = 0;
  for (int round = 0; round < 30; ++round) {
    ConjunctList x = randomList(mgr, kVars, rng, 3);
    ConjunctList y;
    if (round % 2 == 0) {
      // Same set, syntactically different list: split one member.
      y = ConjunctList(&mgr);
      for (const Bdd& c : x) y.push(c);
      const Bdd extra = test::randomBdd(mgr, kVars, rng, 2);
      y.push(x[0] | extra);  // implied by x[0]: no semantic change
    } else {
      y = randomList(mgr, kVars, rng, 3);
    }
    const bool expected = x.evaluate() == y.evaluate();
    equalCount += expected ? 1 : 0;
    EXPECT_EQ(checker.equal(x, y), expected) << "round " << round;
  }
  EXPECT_GT(equalCount, 5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ImplicationSweep, ::testing::Range<std::uint64_t>(1, 7),
    [](const ::testing::TestParamInfo<std::uint64_t>& paramInfo) {
      return "s" + std::to_string(paramInfo.param);
    });

TEST(Termination, TrivialCases) {
  BddManager mgr;
  mgr.newVar();
  TerminationChecker checker(mgr);
  // Empty disjunction is FALSE, not a tautology.
  EXPECT_FALSE(checker.disjunctionIsTautology({}));
  EXPECT_TRUE(checker.disjunctionIsTautology({kTrueEdge}));
  EXPECT_FALSE(checker.disjunctionIsTautology({kFalseEdge}));
  const Edge x = mgr.var(0).edge();
  EXPECT_TRUE(checker.disjunctionIsTautology({x, edgeNot(x)}));  // step 2
  EXPECT_FALSE(checker.disjunctionIsTautology({x, x}));
}

TEST(Termination, Step3PairwiseTautology) {
  BddManager mgr;
  for (unsigned i = 0; i < 4; ++i) mgr.newVar();
  TerminationChecker checker(mgr);
  // Neither pair is complementary but one pairwise OR is TRUE.
  const Bdd a = mgr.var(0) | mgr.var(1);
  const Bdd c = mgr.var(3);
  // a | (!a | x2) is a tautology (caught at step 3, not step 2).
  EXPECT_TRUE(checker.disjunctionIsTautology(
      {a.edge(), ((!a) | mgr.var(2)).edge(), c.edge()}));
  // a | (x0 & x2) | x3 misses x0=x1=x3=0: not a tautology.
  EXPECT_FALSE(checker.disjunctionIsTautology(
      {a.edge(), (mgr.var(0) & mgr.var(2)).edge(), c.edge()}));
}

TEST(Termination, ImpliesIsOneDirectionOfEqual) {
  BddManager mgr;
  for (unsigned i = 0; i < 4; ++i) mgr.newVar();
  TerminationChecker checker(mgr);
  // subset => superset holds, the converse does not: implies answers one
  // direction, equal needs both.
  ConjunctList subset(&mgr, {mgr.var(0), mgr.var(1)});
  ConjunctList superset(&mgr, {mgr.var(0)});
  EXPECT_TRUE(checker.implies(subset, superset));
  EXPECT_FALSE(checker.implies(superset, subset));
  EXPECT_FALSE(checker.equal(subset, superset));
  ConjunctList same(&mgr, {mgr.var(0) & mgr.var(1)});
  EXPECT_TRUE(checker.implies(same, subset));
  EXPECT_TRUE(checker.equal(subset, same));
}

// A random list of 2-8 members, decorated with the tuple recursion's corner
// cases: TRUE and FALSE members, duplicates and complemented members.
ConjunctList decoratedList(BddManager& mgr, unsigned nvars, Rng& rng) {
  ConjunctList list = randomList(mgr, nvars, rng,
                                 2 + static_cast<unsigned>(rng.below(7)));
  switch (rng.below(6)) {
    case 0: list.push(mgr.one()); break;
    case 1: if (rng.below(3) == 0) list.push(mgr.zero()); break;
    case 2: list.push(list[rng.below(list.size())]); break;
    case 3: if (rng.below(3) == 0) list.push(!list[0]); break;
    default: break;
  }
  return list;
}

/// The paper's procedure as the oracle: X => y iff !X_1 | ... | y is a
/// tautology.
bool oracleImplies(TerminationChecker& paper, const ConjunctList& x,
                   const Bdd& y) {
  std::vector<Edge> disjuncts;
  for (const Bdd& xi : x) disjuncts.push_back(edgeNot(xi.edge()));
  disjuncts.push_back(y.edge());
  return paper.disjunctionIsTautology(disjuncts);
}

TEST(Termination, TupleRecursionAgreesWithPaperProcedureAndConjunction) {
  int implied = 0;
  int equalLists = 0;
  std::uint64_t expansions = 0;
  for (unsigned nvars = 8; nvars <= 12; ++nvars) {
    BddManager mgr;
    for (unsigned i = 0; i < nvars; ++i) mgr.newVar();
    Rng rng(nvars * 131);
    TerminationChecker checker(mgr);
    TerminationChecker paper(mgr);
    for (int round = 0; round < 40; ++round) {
      const ConjunctList x = decoratedList(mgr, nvars, rng);
      const Bdd conj = x.evaluate();
      std::vector<Bdd> ys = {test::randomBdd(mgr, nvars, rng, 4), mgr.one(),
                             mgr.zero(), x[rng.below(x.size())]};
      ys.push_back(ys[0] | conj);  // biased toward implications
      for (const Bdd& y : ys) {
        const bool expected = conj.implies(y);
        implied += expected ? 1 : 0;
        EXPECT_EQ(oracleImplies(paper, x, y), expected) << nvars << "/" << round;
        EXPECT_EQ(checker.implies(x, y), expected) << nvars << "/" << round;
      }
      // List against list: a reshuffled copy with a redundant member, an
      // unrelated list, and the empty and single-member lists.
      ConjunctList same(&mgr);
      for (std::size_t i = x.size(); i-- > 0;) same.push(x[i]);
      same.push(x[0] | test::randomBdd(mgr, nvars, rng, 2));
      const ConjunctList single(&mgr, {conj});
      for (const ConjunctList& y :
           {same, decoratedList(mgr, nvars, rng), ConjunctList(&mgr), single}) {
        const Bdd yConj = y.evaluate();
        const bool expectImplies = conj.implies(yConj);
        const bool expectEqual = conj == yConj;
        equalLists += expectEqual ? 1 : 0;
        bool oracle = true;
        for (const Bdd& yk : y) oracle = oracle && oracleImplies(paper, x, yk);
        EXPECT_EQ(oracle, expectImplies) << nvars << "/" << round;
        EXPECT_EQ(checker.implies(x, y), expectImplies) << nvars << "/" << round;
        EXPECT_EQ(checker.equal(x, y), expectEqual) << nvars << "/" << round;
        EXPECT_EQ(checker.equal(y, x), expectEqual) << nvars << "/" << round;
      }
    }
    expansions += checker.stats().shannonExpansions;
  }
  EXPECT_GT(implied, 600);
  EXPECT_GT(equalLists, 400);
  EXPECT_GT(expansions, 0u);
}

TEST(Termination, EqualCreatesNoNodes) {
  BddManager mgr;
  constexpr unsigned kVars = 10;
  for (unsigned i = 0; i < kVars; ++i) mgr.newVar();
  Rng rng(77);
  TerminationChecker checker(mgr);
  int equalCount = 0;
  for (int round = 0; round < 30; ++round) {
    const ConjunctList x = randomList(mgr, kVars, rng, 5);
    ConjunctList y(&mgr);
    for (const Bdd& c : x) y.push(c | test::randomBdd(mgr, kVars, rng, 2));
    if (round % 2 == 0) y.push(x.evaluate());  // same set, other members
    const std::uint64_t created = mgr.stats().nodesCreated;
    const std::uint64_t allocated = mgr.allocatedNodes();
    equalCount += checker.equal(x, y) ? 1 : 0;
    EXPECT_EQ(mgr.stats().nodesCreated, created) << "round " << round;
    EXPECT_EQ(mgr.allocatedNodes(), allocated) << "round " << round;
  }
  EXPECT_GE(equalCount, 15);
  EXPECT_GT(checker.stats().shannonExpansions, 0u);
}

TEST(Termination, StatsAccumulate) {
  BddManager mgr;
  for (unsigned i = 0; i < 6; ++i) mgr.newVar();
  Rng rng(9);
  TerminationChecker checker(mgr);
  for (int i = 0; i < 10; ++i) {
    ConjunctList x = randomList(mgr, 6, rng, 3);
    ConjunctList y = randomList(mgr, 6, rng, 3);
    (void)checker.equal(x, y);
  }
  EXPECT_GT(checker.stats().tautologyCalls, 0u);
  EXPECT_GT(checker.stats().implicationChecks, 0u);
  checker.resetStats();
  EXPECT_EQ(checker.stats().tautologyCalls, 0u);
}

}  // namespace
}  // namespace icb
