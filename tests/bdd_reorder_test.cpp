// Dynamic reordering: adjacent swaps preserve every held function and all
// structural invariants; sifting shrinks a badly-ordered function.
#include <gtest/gtest.h>

#include <array>

#include "bdd/bdd.hpp"
#include "check/check.hpp"
#include "check/test_hooks.hpp"
#include "sym/bitvector.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

/// Each variable's unique subtable chains exactly the allocated nodes that
/// carry the variable, i.e. the nodes at its level.
void expectSubtablesMatchLevels(const BddManager& mgr) {
  std::vector<std::vector<std::uint32_t>> want(mgr.varCount());
  for (std::uint32_t i = 1; i < NodeSurgeon::nodeCount(mgr); ++i) {
    if (!NodeSurgeon::isFree(mgr, i)) {
      want[NodeSurgeon::rawVar(mgr, i)].push_back(i);
    }
  }
  for (unsigned v = 0; v < mgr.varCount(); ++v) {
    EXPECT_EQ(NodeSurgeon::subtableMembers(mgr, v), want[v]) << "v" << v;
  }
}

TEST(BddReorder, SwapPreservesFunctionsAndInvariants) {
  BddManager mgr;
  constexpr unsigned kVars = 8;
  for (unsigned i = 0; i < kVars; ++i) mgr.newVar();
  Rng rng(5);
  std::vector<Bdd> funcs;
  std::vector<std::vector<char>> tables;
  for (int i = 0; i < 12; ++i) {
    funcs.push_back(test::randomBdd(mgr, kVars, rng));
    tables.push_back(test::truthTable(funcs.back(), kVars));
  }
  for (unsigned l = 0; l + 1 < kVars; ++l) {
    mgr.swapAdjacentLevels(l);
    mgr.checkInvariants();
  }
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    EXPECT_EQ(test::truthTable(funcs[i], kVars), tables[i]);
  }
  // Order is now rotated: var 0 sank one level per swap.
  EXPECT_EQ(mgr.varLevel(0), kVars - 1);
}

TEST(BddReorder, SwapIsItsOwnInverse) {
  BddManager mgr;
  for (unsigned i = 0; i < 6; ++i) mgr.newVar();
  Rng rng(9);
  std::vector<Bdd> funcs;
  std::vector<std::vector<char>> tables;
  std::vector<std::uint32_t> indices;
  for (int i = 0; i < 6; ++i) {
    funcs.push_back(test::randomBdd(mgr, 6, rng, 6));
    tables.push_back(test::truthTable(funcs.back(), 6));
    indices.push_back(edgeIndex(funcs.back().edge()));
  }
  mgr.swapAdjacentLevels(2);
  mgr.swapAdjacentLevels(2);
  EXPECT_EQ(mgr.varLevel(2), 2u);
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    // Swaps rewrite nodes in place: every handle keeps its node index.
    EXPECT_EQ(edgeIndex(funcs[i].edge()), indices[i]) << i;
    EXPECT_EQ(test::truthTable(funcs[i], 6), tables[i]) << i;
  }
  mgr.checkInvariants();
}

TEST(BddReorder, SubtablesHoldExactlyTheirLevelAfterSiftAndSwaps) {
  BddManager mgr;
  constexpr unsigned kVars = 10;
  for (unsigned i = 0; i < kVars; ++i) mgr.newVar();
  Rng rng(23);
  std::vector<Bdd> funcs;
  std::vector<std::vector<char>> tables;
  for (int i = 0; i < 16; ++i) {
    funcs.push_back(test::randomBdd(mgr, kVars, rng, 7));
    tables.push_back(test::truthTable(funcs.back(), kVars));
  }
  (void)mgr.sift();
  expectSubtablesMatchLevels(mgr);
  mgr.checkInvariants();

  // Manual swaps leave their dead intermediates allocated (no collection
  // runs between them), so the subtables must track those too.
  for (int k = 0; k < 60; ++k) {
    mgr.swapAdjacentLevels(static_cast<unsigned>(rng.below(kVars - 1)));
    if (k % 10 == 9) expectSubtablesMatchLevels(mgr);
  }
  expectSubtablesMatchLevels(mgr);
  mgr.checkInvariants();
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    EXPECT_EQ(test::truthTable(funcs[i], kVars), tables[i]) << i;
  }
}

TEST(BddReorder, SwapHandlesComplementedElseArcs) {
  BddManager mgr;
  for (unsigned i = 0; i < 4; ++i) mgr.newVar();
  // xor chains force complemented else arcs at every level.
  const Bdd f = mgr.var(0) ^ mgr.var(1) ^ mgr.var(2) ^ mgr.var(3);
  const auto table = test::truthTable(f, 4);
  for (unsigned l = 0; l + 1 < 4; ++l) {
    mgr.swapAdjacentLevels(l);
    mgr.checkInvariants();
    EXPECT_EQ(test::truthTable(f, 4), table);
  }
}

TEST(BddReorder, SiftShrinksBadComparatorOrder) {
  // a <= b over two vectors allocated in the WORST order (all of a, then all
  // of b) is exponential-ish; sifting must interleave and shrink it.
  BddManager mgr;
  constexpr unsigned kWidth = 6;
  BitVec a;
  BitVec b;
  for (unsigned j = 0; j < kWidth; ++j) a.push(mgr.var(mgr.newVar()));
  for (unsigned j = 0; j < kWidth; ++j) b.push(mgr.var(mgr.newVar()));
  const Bdd le = ule(a, b);
  const auto table = test::truthTable(le, 2 * kWidth);
  mgr.gc();
  const std::uint64_t before = le.size();
  const std::int64_t delta = mgr.sift();
  EXPECT_LT(delta, 0);  // net shrink
  EXPECT_LT(le.size(), before);
  EXPECT_EQ(test::truthTable(le, 2 * kWidth), table);
  mgr.checkInvariants();
}

TEST(BddReorder, SiftOnTrivialManagerIsNoop) {
  BddManager mgr;
  mgr.newVar();
  EXPECT_EQ(mgr.sift(), 0);
}

TEST(BddReorder, GroupedSiftKeepsPairsAdjacent) {
  // Same worst-order comparator, but with each (a_j, b_j) pair registered as
  // a sifting group: the pairs must come out adjacent and in order, the way
  // VarManager's (cur, nxt) state-bit pairs rely on.
  BddManager mgr;
  constexpr unsigned kWidth = 5;
  BitVec a;
  BitVec b;
  for (unsigned j = 0; j < kWidth; ++j) a.push(mgr.var(mgr.newVar()));
  for (unsigned j = 0; j < kWidth; ++j) b.push(mgr.var(mgr.newVar()));
  for (unsigned j = 0; j < kWidth; ++j) {
    const std::array<unsigned, 2> pair{a.bit(j).topVar(), b.bit(j).topVar()};
    mgr.groupVars(pair);
    EXPECT_EQ(mgr.varGroupOf(pair[0]), mgr.varGroupOf(pair[1]));
  }
  const Bdd le = ule(a, b);
  const auto table = test::truthTable(le, 2 * kWidth);
  mgr.gc();
  const std::uint64_t before = le.size();
  EXPECT_LT(mgr.sift(), 0);
  EXPECT_LT(le.size(), before);
  EXPECT_EQ(test::truthTable(le, 2 * kWidth), table);
  for (unsigned j = 0; j < kWidth; ++j) {
    EXPECT_EQ(mgr.varLevel(a.bit(j).topVar()) + 1,
              mgr.varLevel(b.bit(j).topVar()))
        << "pair " << j << " split by sift";
  }
  mgr.checkInvariants();
}

TEST(BddReorder, GroupVarsRejectsBadIndex) {
  BddManager mgr;
  mgr.newVar();
  const std::array<unsigned, 2> bad{0, 7};
  EXPECT_THROW(mgr.groupVars(bad), BddUsageError);
  EXPECT_EQ(mgr.varGroupOf(0), BddManager::kNoGroup);
}

TEST(BddReorder, SiftIncrementalCountMatchesMarkPass) {
  // Under kFull, every swap cross-checks the sift's incremental live count
  // against a fresh liveNodes() mark pass (auditReorderBook); a clean sift
  // here means the bookkeeping agreed at every one of the O(n^2) steps.
  const CheckLevel saved = checkLevel();
  setCheckLevel(CheckLevel::kFull);
  BddManager mgr;
  BitVec a;
  BitVec b;
  for (unsigned j = 0; j < 5; ++j) a.push(mgr.var(mgr.newVar()));
  for (unsigned j = 0; j < 5; ++j) b.push(mgr.var(mgr.newVar()));
  const Bdd le = ule(a, b);
  const Bdd sum = (a.bit(0) ^ b.bit(4)) & le;
  EXPECT_NO_THROW(mgr.sift());
  setCheckLevel(saved);
  mgr.checkInvariants();
}

TEST(BddReorder, InterruptedSiftLeavesManagerAuditClean) {
  BddManager mgr;
  BitVec a;
  BitVec b;
  for (unsigned j = 0; j < 6; ++j) a.push(mgr.var(mgr.newVar()));
  for (unsigned j = 0; j < 6; ++j) b.push(mgr.var(mgr.newVar()));
  const Bdd le = ule(a, b);
  const auto table = test::truthTable(le, 12);
  mgr.gc();
  // Any swap that allocates pushes past this cap, so the per-swap limit
  // check fires almost immediately -- mid-sift, between two swaps.
  ResourceLimits limits;
  limits.maxNodes = mgr.allocatedNodes();
  mgr.setLimits(limits);
  EXPECT_THROW(mgr.sift(), ResourceLimitError);
  mgr.clearLimits();
  EXPECT_EQ(mgr.stats().reorderInterrupted, 1u);
  // The manager must be audit-clean and fully usable: the interrupt landed
  // at a consistent state, with only collectable dead nodes left behind.
  mgr.checkInvariants();
  mgr.gc();
  mgr.checkInvariants();
  EXPECT_EQ(test::truthTable(le, 12), table);
}

TEST(BddReorder, AutoReorderFiresOnGrowthAndIsIdentityWhenOff) {
  BddOptions on;
  on.autoReorder = true;
  on.reorderTrigger = 1.2;
  on.reorderMinLiveNodes = 1;
  BddManager mgr(on);
  BitVec a;
  BitVec b;
  for (unsigned j = 0; j < 6; ++j) a.push(mgr.var(mgr.newVar()));
  for (unsigned j = 0; j < 6; ++j) b.push(mgr.var(mgr.newVar()));
  // First safe point records the baseline; nothing to do yet.
  EXPECT_FALSE(mgr.autoReorderIfNeeded());
  const Bdd le = ule(a, b);  // worst-order: plenty of growth past 1.2x
  const auto table = test::truthTable(le, 12);
  EXPECT_TRUE(mgr.autoReorderIfNeeded());
  EXPECT_EQ(mgr.stats().reorderRuns, 1u);
  EXPECT_GT(mgr.stats().reorderSavedNodes, 0u);
  EXPECT_EQ(test::truthTable(le, 12), table);
  mgr.checkInvariants();

  BddManager off;  // default options: the paper's fixed-order regime
  BitVec c;
  BitVec d;
  for (unsigned j = 0; j < 6; ++j) c.push(off.var(off.newVar()));
  for (unsigned j = 0; j < 6; ++j) d.push(off.var(off.newVar()));
  const Bdd le2 = ule(c, d);
  EXPECT_FALSE(off.autoReorderIfNeeded());
  EXPECT_EQ(off.stats().reorderRuns, 0u);
  EXPECT_EQ(off.stats().reorderSwaps, 0u);
  for (unsigned v = 0; v < off.varCount(); ++v) {
    EXPECT_EQ(off.varLevel(v), v);  // order untouched
  }
}

}  // namespace
}  // namespace icb
