// Mutation tests for the invariant-checker subsystem (src/check/).
//
// Each negative test breaks exactly one invariant class through the
// test-only surgeon hooks and asserts the matching ViolationKind is
// reported.  Positive tests pin down that clean structures audit clean,
// so the checkers cannot rot into always-firing (or never-firing) noise.
#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "check/cache_auditor.hpp"
#include "check/check.hpp"
#include "check/ici_checker.hpp"
#include "check/structural_checker.hpp"
#include "check/test_hooks.hpp"
#include "ici/conjunct_list.hpp"
#include "ici/pair_table.hpp"

namespace icb {
namespace {

/// Restores the process check level on scope exit so tests that lower it
/// cannot weaken an ICBDD_CHECK_LEVEL=full suite run for later tests.
class CheckLevelGuard {
 public:
  CheckLevelGuard() : saved_(checkLevel()) {}
  ~CheckLevelGuard() { setCheckLevel(saved_); }

 private:
  CheckLevel saved_;
};

/// A manager with two conjoined variables and one node freed by GC, which
/// is the minimal arena exercising every structural-checker branch.
struct Patient {
  BddManager mgr;
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  Bdd f;                      // a & b, kept live
  std::uint32_t fIndex = 0;   // arena index of f's top node
  std::uint32_t freeIndex = 0;  // some GC-freed slot (0 when none found)

  Patient() {
    a = mgr.newVar("a");
    b = mgr.newVar("b");
    c = mgr.newVar("c");
    {
      const Bdd garbage = mgr.var(a) ^ mgr.var(c);
      (void)garbage;
    }
    f = mgr.var(a) & mgr.var(b);
    fIndex = edgeIndex(f.edge());
    mgr.gc();  // frees the xor node, leaving a hole in the arena
    for (std::uint32_t i = 1; i < NodeSurgeon::nodeCount(mgr); ++i) {
      if (NodeSurgeon::isFree(mgr, i)) {
        freeIndex = i;
        break;
      }
    }
  }
};

bool reports(const BddManager& mgr, ViolationKind kind) {
  return StructuralChecker(mgr).run(CheckLevel::kFull).has(kind);
}

// ---------------------------------------------------------------------------
// positive: clean structures audit clean

TEST(CheckClean, FullStructuralAuditPassesOnWorkingManager) {
  BddManager mgr;
  std::vector<Bdd> vars;
  for (unsigned i = 0; i < 8; ++i) vars.push_back(mgr.var(mgr.newVar()));
  Bdd f = mgr.one();
  for (unsigned i = 0; i < 8; ++i) f = (f & vars[i]) ^ vars[(i + 3) % 8];
  mgr.gc();
  const CheckReport report = StructuralChecker(mgr).run(CheckLevel::kFull);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.itemsChecked, 0u);
  EXPECT_NO_THROW(mgr.checkInvariants());
}

TEST(CheckClean, CacheAuditPassesOnWorkingManager) {
  Patient p;
  const Bdd more = (p.mgr.var(p.a) | p.mgr.var(p.c)) ^ p.f;
  (void)more;
  const CheckReport report = CacheAuditor(p.mgr).audit();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.itemsChecked, 0u);
}

TEST(CheckClean, IciAuditsPassOnHonestListAndTable) {
  Patient p;
  const ConjunctList list(&p.mgr, {p.f, p.mgr.var(p.c)});
  const IciChecker checker(p.mgr);
  EXPECT_TRUE(checker.checkDenotationPreserved(list, list).ok());

  PairTable table(p.mgr, {p.mgr.var(p.a), p.mgr.var(p.b), p.mgr.var(p.c)});
  const CheckReport report = checker.checkPairTable(table);
  EXPECT_TRUE(report.ok()) << report.summary();
  table.merge(0, 1);
  EXPECT_TRUE(checker.checkPairTable(table).ok());
}

// ---------------------------------------------------------------------------
// level plumbing

TEST(CheckLevelPlumbing, ParseAcceptsNamesAndDigits) {
  CheckLevel level = CheckLevel::kOff;
  EXPECT_TRUE(parseCheckLevel("full", &level));
  EXPECT_EQ(level, CheckLevel::kFull);
  EXPECT_TRUE(parseCheckLevel("CHEAP", &level));
  EXPECT_EQ(level, CheckLevel::kCheap);
  EXPECT_TRUE(parseCheckLevel("0", &level));
  EXPECT_EQ(level, CheckLevel::kOff);
  EXPECT_FALSE(parseCheckLevel("paranoid", &level));
  EXPECT_EQ(level, CheckLevel::kOff);  // untouched on failure
}

TEST(CheckLevelPlumbing, SetCheckLevelIsObservedByTheMacro) {
  CheckLevelGuard guard;
  setCheckLevel(CheckLevel::kOff);
  int fired = 0;
  ICBDD_CHECK(kCheap, ++fired);
  EXPECT_EQ(fired, 0);
  setCheckLevel(CheckLevel::kCheap);
  ICBDD_CHECK(kCheap, ++fired);
  ICBDD_CHECK(kFull, ++fired);  // cheap level must not run full checks
  EXPECT_EQ(fired, 1);
  setCheckLevel(CheckLevel::kFull);
  ICBDD_CHECK(kFull, ++fired);
  EXPECT_EQ(fired, 2);
}

TEST(CheckLevelPlumbing, CheapEffortSkipsTheArenaWalk) {
  Patient p;
  NodeSurgeon::complementThenArc(p.mgr, p.fIndex);
  // Node-level corruption is invisible to the O(roots + free list) tier...
  EXPECT_TRUE(StructuralChecker(p.mgr).run(CheckLevel::kCheap).ok());
  // ...and loud at full effort.
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kComplementedThenArc));
}

// ---------------------------------------------------------------------------
// mutations: node arena / canonical form

TEST(CheckMutation, ComplementedThenArcIsReported) {
  Patient p;
  NodeSurgeon::complementThenArc(p.mgr, p.fIndex);
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kComplementedThenArc));
}

TEST(CheckMutation, RedundantNodeIsReported) {
  Patient p;
  NodeSurgeon::setNodeFields(p.mgr, p.fIndex, NodeSurgeon::rawVar(p.mgr, p.fIndex),
                             NodeSurgeon::rawLo(p.mgr, p.fIndex),
                             NodeSurgeon::rawLo(p.mgr, p.fIndex));
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kRedundantNode));
}

TEST(CheckMutation, OrderViolationIsReported) {
  Patient p;
  // f's node tests `a` (level 0) and its then-arc reaches the projection of
  // `b` (level 1).  Relabelling the node with `b` puts the child at the same
  // level as its parent: the order is no longer strictly decreasing.
  NodeSurgeon::setNodeFields(p.mgr, p.fIndex, p.b,
                             NodeSurgeon::rawHi(p.mgr, p.fIndex),
                             NodeSurgeon::rawLo(p.mgr, p.fIndex));
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kOrderViolation));
}

TEST(CheckMutation, DanglingChildIsReported) {
  Patient p;
  ASSERT_NE(p.freeIndex, 0u) << "fixture failed to produce a freed slot";
  NodeSurgeon::setNodeFields(p.mgr, p.fIndex, NodeSurgeon::rawVar(p.mgr, p.fIndex),
                             makeEdge(p.freeIndex, false),
                             NodeSurgeon::rawLo(p.mgr, p.fIndex));
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kDanglingChild));
}

TEST(CheckMutation, ChildOutsideTheArenaIsReported) {
  Patient p;
  NodeSurgeon::setNodeFields(p.mgr, p.fIndex, NodeSurgeon::rawVar(p.mgr, p.fIndex),
                             makeEdge(NodeSurgeon::nodeCount(p.mgr) + 7, false),
                             NodeSurgeon::rawLo(p.mgr, p.fIndex));
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kInvalidEdge));
}

TEST(CheckMutation, DuplicateNodeIsReported) {
  Patient p;
  const Bdd g = p.mgr.var(p.a) ^ p.mgr.var(p.b);
  const std::uint32_t gIndex = edgeIndex(g.edge());
  ASSERT_NE(gIndex, p.fIndex);
  NodeSurgeon::setNodeFields(p.mgr, gIndex, NodeSurgeon::rawVar(p.mgr, p.fIndex),
                             NodeSurgeon::rawHi(p.mgr, p.fIndex),
                             NodeSurgeon::rawLo(p.mgr, p.fIndex));
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kDuplicateNode));
}

// ---------------------------------------------------------------------------
// mutations: unique table / free list / roots

TEST(CheckMutation, UniqueTableMissIsReported) {
  Patient p;
  ASSERT_TRUE(NodeSurgeon::detachFromUniqueTable(p.mgr, p.fIndex));
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kUniqueTableMiss));
}

TEST(CheckMutation, NodeChainedInAnotherVariablesSubtableIsReported) {
  // f's node tests `a`; chained in c's subtable, no lookup of its triple
  // can find it, and a swap of c's level would rewrite it.
  Patient p;
  ASSERT_TRUE(NodeSurgeon::relinkIntoSubtable(p.mgr, p.fIndex, p.c));
  ASSERT_EQ(NodeSurgeon::rawVar(p.mgr, p.fIndex), p.a);
  const CheckReport report = StructuralChecker(p.mgr).run(CheckLevel::kFull);
  EXPECT_TRUE(report.has(ViolationKind::kUniqueTableChainCorrupt));
  EXPECT_NE(report.summary().find("subtable of v2 chains node " +
                                  std::to_string(p.fIndex) + " of v0"),
            std::string::npos)
      << report.summary();
}

TEST(CheckMutation, FreeListCounterDriftIsReportedEvenAtCheapEffort) {
  Patient p;
  NodeSurgeon::bumpFreeCount(p.mgr, 5);
  // The free-list sweep is part of the cheap tier.
  EXPECT_TRUE(
      StructuralChecker(p.mgr).run(CheckLevel::kCheap).has(
          ViolationKind::kFreeListCorrupt));
}

TEST(CheckMutation, StaleRefOnFreedNodeIsReported) {
  Patient p;
  ASSERT_NE(p.freeIndex, 0u) << "fixture failed to produce a freed slot";
  NodeSurgeon::setRef(p.mgr, p.freeIndex, 3);
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kStaleRefOnFreeNode));
}

TEST(CheckMutation, CorruptProjectionEdgeIsReported) {
  Patient p;
  NodeSurgeon::setVarEdge(p.mgr, p.b, kTrueEdge);
  EXPECT_TRUE(reports(p.mgr, ViolationKind::kVarEdgeCorrupt));
}

TEST(CheckMutation, CheckInvariantsStillThrowsBddUsageError) {
  // The pre-existing public entry point must keep its documented contract
  // after delegating to the new checker.
  Patient p;
  NodeSurgeon::complementThenArc(p.mgr, p.fIndex);
  EXPECT_THROW(p.mgr.checkInvariants(), BddUsageError);
}

TEST(CheckMutation, ThrowIfBrokenCarriesTheViolationKind) {
  Patient p;
  NodeSurgeon::bumpFreeCount(p.mgr, 1);
  try {
    StructuralChecker(p.mgr).throwIfBroken();
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(e.kind(), ViolationKind::kFreeListCorrupt);
    EXPECT_NE(std::string(e.what()).find("free-list-corrupt"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// mutations: computed cache

TEST(CheckMutation, FlippedCacheResultIsCaughtByReExecution) {
  Patient p;
  // The fixture's gc() flushed the computed cache; repopulate it so there
  // is an entry to corrupt.
  const Bdd g = p.f ^ p.mgr.var(p.c);
  (void)g;
  ASSERT_TRUE(NodeSurgeon::corruptFirstCacheEntry(p.mgr));
  const CheckReport report = CacheAuditor(p.mgr).audit();
  EXPECT_TRUE(report.has(ViolationKind::kCacheWrongResult))
      << report.summary();
}

TEST(CheckMutation, DanglingCacheOperandIsReported) {
  Patient p;
  NodeSurgeon::plantDanglingCacheEntry(p.mgr);
  const CheckReport report = CacheAuditor(p.mgr).audit();
  EXPECT_TRUE(report.has(ViolationKind::kCacheDanglingEdge))
      << report.summary();
}

// ---------------------------------------------------------------------------
// mutations: ICI layer

TEST(CheckMutation, ChangedDenotationIsCaughtExactly) {
  Patient p;
  const ConjunctList before(&p.mgr, {p.f, p.mgr.var(p.c)});
  const ConjunctList after(&p.mgr, {p.f, !p.mgr.var(p.c)});
  const CheckReport report =
      IciChecker(p.mgr).checkDenotationPreserved(before, after);
  EXPECT_TRUE(report.has(ViolationKind::kDenotationChanged))
      << report.summary();
}

TEST(CheckMutation, ChangedDenotationIsCaughtBySampling) {
  Patient p;
  IciCheckOptions options;
  options.exactNodeLimit = 0;  // force the spot-check path
  const ConjunctList before(&p.mgr, {p.f, p.mgr.var(p.c)});
  const ConjunctList after(&p.mgr, {p.f, !p.mgr.var(p.c)});
  const CheckReport report =
      IciChecker(p.mgr, options).checkDenotationPreserved(before, after);
  EXPECT_TRUE(report.has(ViolationKind::kDenotationChanged))
      << report.summary();
}

TEST(CheckMutation, PairTableEntryMismatchIsReported) {
  Patient p;
  PairTable table(p.mgr, {p.mgr.var(p.a), p.mgr.var(p.b)});
  PairTableSurgeon::replaceEntry(table, 0, 1, p.mgr.var(p.a));
  EXPECT_TRUE(IciChecker(p.mgr).checkPairTable(table).has(
      ViolationKind::kPairTableMismatch));
}

TEST(CheckMutation, PairTableStaleSizeColumnsAreReported) {
  Patient p;
  PairTable table(p.mgr, {p.mgr.var(p.a), p.mgr.var(p.b)});
  PairTableSurgeon::corruptEntrySize(table, 0, 1, 999);
  EXPECT_TRUE(IciChecker(p.mgr).checkPairTable(table).has(
      ViolationKind::kPairTableStaleSize));

  PairTable table2(p.mgr, {p.mgr.var(p.a), p.mgr.var(p.b)});
  PairTableSurgeon::corruptConjunctSize(table2, 0, 999);
  EXPECT_TRUE(IciChecker(p.mgr).checkPairTable(table2).has(
      ViolationKind::kPairTableStaleSize));
}

TEST(CheckMutation, RefcountSaturatesAtMaxAndPinsForever) {
  // A node whose external count reaches kMaxRef is pinned: further refs
  // are no-ops and derefs neither decrement nor underflow.  The surgeon
  // plants a near-saturated count so the test does not need 2^32 handles.
  constexpr std::uint32_t kMax = NodeStore::kMaxRef;
  Patient p;
  NodeSurgeon::setRef(p.mgr, p.fIndex, kMax - 1);

  {
    const Bdd c1 = p.f;  // ref: kMax-1 -> kMax (the last real increment)
    EXPECT_EQ(NodeSurgeon::refOf(p.mgr, p.fIndex), kMax);
    const Bdd c2 = p.f;  // ref at kMax: saturates, stays kMax
    (void)c2;
    EXPECT_EQ(NodeSurgeon::refOf(p.mgr, p.fIndex), kMax);
  }
  // Both copies released: a pinned count never comes back down, and --
  // the bug class this guards -- never wraps through zero.
  EXPECT_EQ(NodeSurgeon::refOf(p.mgr, p.fIndex), kMax);
  EXPECT_EQ(p.mgr.stats().refUnderflows, 0u);

  // Checked-path deref on the pinned node is also a no-op, not an
  // underflow diagnostic.
  NodeSurgeon::derefEdge(p.mgr, p.f.edge());
  EXPECT_EQ(NodeSurgeon::refOf(p.mgr, p.fIndex), kMax);
  EXPECT_EQ(p.mgr.stats().refUnderflows, 0u);

  // GC sees the pinned node as a root and keeps it.
  p.mgr.gc();
  EXPECT_FALSE(NodeSurgeon::isFree(p.mgr, p.fIndex));
  EXPECT_EQ(NodeSurgeon::refOf(p.mgr, p.fIndex), kMax);
  p.mgr.checkInvariants();
}

}  // namespace
}  // namespace icb
