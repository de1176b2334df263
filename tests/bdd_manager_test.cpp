// Manager-level behaviour: adaptive GC, statistics counters, variable
// naming/levels, option plumbing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>

#include "bdd/bdd.hpp"
#include "bdd/computed_cache.hpp"
#include "bdd/serialize.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

TEST(BddManagerBehaviour, VariableNamesAndLevels) {
  BddManager mgr;
  const unsigned a = mgr.newVar("alpha");
  const unsigned b = mgr.newVar();  // auto-named
  EXPECT_EQ(mgr.varName(a), "alpha");
  EXPECT_EQ(mgr.varName(b), "v1");
  EXPECT_EQ(mgr.varLevel(a), 0u);
  EXPECT_EQ(mgr.varLevel(b), 1u);
  EXPECT_EQ(mgr.varAtLevel(0), a);
  EXPECT_EQ(mgr.varAtLevel(1), b);
  mgr.swapAdjacentLevels(0);
  EXPECT_EQ(mgr.varLevel(a), 1u);
  EXPECT_EQ(mgr.varAtLevel(0), b);
}

TEST(BddManagerBehaviour, StatsCountersMove) {
  BddManager mgr;
  for (unsigned i = 0; i < 10; ++i) mgr.newVar();
  Rng rng(3);
  const auto before = mgr.stats();
  for (int i = 0; i < 20; ++i) {
    const Bdd f = test::randomBdd(mgr, 10, rng, 5);
    (void)f;
  }
  const auto after = mgr.stats();
  EXPECT_GT(after.nodesCreated, before.nodesCreated);
  EXPECT_GT(after.uniqueLookups, before.uniqueLookups);
  EXPECT_GT(after.cacheLookups(), before.cacheLookups());
  EXPECT_GE(after.peakNodes, before.peakNodes);
  mgr.gc();
  EXPECT_EQ(mgr.stats().gcRuns, after.gcRuns + 1);
}

TEST(BddManagerBehaviour, ResetPeakTracksFromCurrentOccupancy) {
  BddManager mgr;
  for (unsigned i = 0; i < 12; ++i) mgr.newVar();
  Rng rng(5);
  {
    const Bdd garbage = test::randomBdd(mgr, 12, rng, 7);
    (void)garbage;
  }
  mgr.gc();
  mgr.resetPeak();
  const std::uint64_t baseline = mgr.stats().peakNodes;
  EXPECT_EQ(baseline, mgr.allocatedNodes());
  const Bdd f = test::randomBdd(mgr, 12, rng, 7);
  (void)f;
  EXPECT_GT(mgr.stats().peakNodes, baseline);
}

TEST(BddManagerBehaviour, GcKeepsCacheEntriesWhoseNodesSurvive) {
  BddManager mgr;
  for (unsigned i = 0; i < 12; ++i) mgr.newVar();
  Rng rng(11);
  const Bdd f = test::randomBdd(mgr, 12, rng, 6);
  const Bdd g = test::randomBdd(mgr, 12, rng, 6);
  const Bdd h = f & g;  // seeds the computed cache; f, g, h stay rooted
  {
    const Bdd garbage = test::randomBdd(mgr, 12, rng, 6);
    (void)garbage;
  }
  mgr.gc();
  // The sweep frees slots in place, so an entry whose operands and result
  // all survived is still exactly valid -- repeating the conjunction must
  // hit the cache instead of recomputing.
  const std::uint64_t hitsBefore = mgr.stats().cacheFor(BddOp::kAnd).hits;
  const std::uint64_t createdBefore = mgr.stats().nodesCreated;
  EXPECT_EQ(f & g, h);
  EXPECT_GT(mgr.stats().cacheFor(BddOp::kAnd).hits, hitsBefore);
  EXPECT_EQ(mgr.stats().nodesCreated, createdBefore);
}

TEST(BddManagerBehaviour, AutoGcEventuallyCollects) {
  BddOptions options;
  options.gcThreshold = 1u << 10;  // tiny threshold: force collections
  BddManager mgr(options);
  for (unsigned i = 0; i < 16; ++i) mgr.newVar();
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const Bdd f = test::randomBdd(mgr, 16, rng, 5);
    (void)f;  // dies immediately: pure garbage
  }
  EXPECT_GT(mgr.stats().gcRuns, 0u);
  mgr.checkInvariants();
}

TEST(BddManagerBehaviour, AutoGcDoesNotThrashAfterALargeBddDies) {
  // The trigger is the allocated count, not the arena extent: once a large
  // BDD dies, one collection brings the allocation back under the threshold
  // and small work on a small live set never collects again, although the
  // extent stays at its high-water mark.
  BddManager mgr;
  constexpr unsigned kPairs = 17;
  for (unsigned i = 0; i < 2 * kPairs; ++i) mgr.newVar();
  {
    // OR of x_i & y_i with every x above every y: 2^17 nodes.
    Bdd big = mgr.zero();
    for (unsigned i = 0; i < kPairs; ++i) {
      big = big | (mgr.var(i) & mgr.var(kPairs + i));
    }
    ASSERT_GT(big.size(), 100000u);
  }
  Rng rng(13);
  std::vector<Bdd> small;
  for (int i = 0; i < 8; ++i) small.push_back(test::randomBdd(mgr, 8, rng, 4));
  const std::uint64_t runsBefore = mgr.stats().gcRuns;
  for (int i = 0; i < 1000; ++i) {
    const Bdd& a = small[static_cast<std::size_t>(i) % small.size()];
    const Bdd& b = small[static_cast<std::size_t>(i * 5 + 3) % small.size()];
    const Bdd r = i % 3 == 0 ? (a & b) : i % 3 == 1 ? (a | b) : (a ^ b);
    (void)r;
  }
  EXPECT_LE(mgr.stats().gcRuns, runsBefore + 1);
  mgr.checkInvariants();
}

TEST(BddManagerBehaviour, CacheGrowKeepsEveryEntryAtItsRehashedSlot) {
  ComputedCache cache(256);
  Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    const auto op = static_cast<std::uint32_t>(1 + rng.below(7));
    cache.insert(op, static_cast<Edge>(rng.below(1u << 20)),
                 static_cast<Edge>(rng.below(1u << 20)),
                 static_cast<Edge>(rng.below(1u << 20)),
                 static_cast<Edge>(rng.below(1u << 20)));
  }
  // The reference: decode every entry and re-insert it into a table of
  // twice the size.
  ComputedCache rehashed(512);
  std::vector<ComputedCache::Entry> held;
  for (std::size_t slot = 0; slot < cache.size(); ++slot) {
    const ComputedCache::Entry e = cache.entryAt(slot);
    if (e.op == 0) continue;
    held.push_back(e);
    rehashed.setEntryAt(rehashed.slotOf(e.op, e.f, e.g, e.h), e);
  }
  ASSERT_GT(held.size(), 100u);

  cache.grow();
  ASSERT_EQ(cache.size(), 512u);
  for (std::size_t slot = 0; slot < cache.size(); ++slot) {
    const ComputedCache::Entry got = cache.entryAt(slot);
    const ComputedCache::Entry want = rehashed.entryAt(slot);
    EXPECT_EQ(got.op, want.op) << "slot " << slot;
    EXPECT_EQ(got.f, want.f) << "slot " << slot;
    EXPECT_EQ(got.g, want.g) << "slot " << slot;
    EXPECT_EQ(got.h, want.h) << "slot " << slot;
    EXPECT_EQ(got.result, want.result) << "slot " << slot;
  }
  for (const ComputedCache::Entry& e : held) {
    Edge out = 0;
    ASSERT_TRUE(cache.lookup(e.op, e.f, e.g, e.h, &out));
    EXPECT_EQ(out, e.result);
  }
}

TEST(BddManagerBehaviour, CacheEntryRoundTripsAtEveryFieldsWidest) {
  // An entry is two words: f | g<<32, and h | op<<28 | result<<32.  The
  // widest h any edge reaches is the complemented edge of kMaxIndex.
  const Edge wide = 0xFFFFFFFFu;
  const Edge h = makeEdge(NodeStore::kMaxIndex, true);
  const auto expectWidest = [&](const ComputedCache::Entry& e,
                                std::uint32_t op) {
    EXPECT_EQ(e.f, wide);
    EXPECT_EQ(e.g, wide);
    EXPECT_EQ(e.h, h);
    EXPECT_EQ(e.op, op);
    EXPECT_EQ(e.result, wide);
  };
  for (std::uint32_t op = 1; op < kBddOpCount; ++op) {
    SCOPED_TRACE(op);
    ComputedCache cache(64);
    cache.insert(op, wide, wide, h, wide);
    Edge out = 0;
    ASSERT_TRUE(cache.lookup(op, wide, wide, h, &out));
    EXPECT_EQ(out, wide);
    const std::size_t slot = cache.slotOf(op, wide, wide, h);
    const ComputedCache::Entry e = cache.entryAt(slot);
    expectWidest(e, op);

    ComputedCache copy(64);
    copy.setEntryAt(slot, e);
    expectWidest(copy.entryAt(slot), op);
    ASSERT_TRUE(copy.lookup(op, wide, wide, h, &out));
    EXPECT_EQ(out, wide);
    // The op tag is part of the compared key, even beside the widest h.
    ComputedCache::Entry other = e;
    other.op = static_cast<std::uint32_t>(op % (kBddOpCount - 1) + 1);
    copy.setEntryAt(slot, other);
    EXPECT_FALSE(copy.lookup(op, wide, wide, h, &out));
  }
}

TEST(BddManagerBehaviour, CacheStaysWithinItsFactorOfPeakAllocation) {
  BddOptions options;
  options.cacheBitsLog2 = 8;
  BddManager mgr(options);
  for (unsigned i = 0; i < 16; ++i) mgr.newVar();
  Rng rng(19);
  std::vector<Bdd> keep;
  while (mgr.stats().peakNodes < 4400) {
    keep.push_back(test::randomBdd(mgr, 16, rng, 6));
  }
  // A peak in [4096, 8192 / 1.5) tells 1.5 entries per node (an 8192-entry
  // cache) from 2 (16384).
  const std::uint64_t peak = mgr.stats().peakNodes;
  ASSERT_LT(peak, 5400u);
  EXPECT_GT(mgr.stats().cacheResizes, 0u);
  const auto bound = std::bit_ceil(static_cast<std::uint64_t>(std::ceil(
      BddManager::kCacheEntriesPerNode * static_cast<double>(peak))));
  EXPECT_LE(mgr.computedCacheEntries(), bound);
}

TEST(BddManagerBehaviour, BytesForNodesIsMonotone) {
  // Instance method since the estimate folds in the refcount side table,
  // which is per-manager state.
  BddManager mgr;
  EXPECT_LT(mgr.bytesForNodes(10), mgr.bytesForNodes(1000));
  // Arena bytes alone are a lower bound on the reported footprint.
  EXPECT_GE(mgr.bytesForNodes(1000), 1000u * 16u);
}

TEST(BddManagerBehaviour, EmptyCubeIsTrue) {
  BddManager mgr;
  EXPECT_EQ(mgr.cubeE(std::vector<unsigned>{}), kTrueEdge);
}

TEST(BddManagerBehaviour, CubeRejectsUnknownVariables) {
  BddManager mgr;
  mgr.newVar();
  EXPECT_THROW(mgr.cubeE(std::vector<unsigned>{5}), BddUsageError);
}

TEST(BddManagerBehaviour, VarAccessorsRejectOutOfRange) {
  BddManager mgr;
  EXPECT_THROW((void)mgr.var(0), BddUsageError);
  EXPECT_THROW((void)mgr.nvar(0), BddUsageError);
  EXPECT_THROW((void)mgr.varEdge(0), BddUsageError);
}

TEST(BddManagerBehaviour, FreeListReusesIndices) {
  BddManager mgr;
  for (unsigned i = 0; i < 8; ++i) mgr.newVar();
  Rng rng(11);
  {
    const Bdd garbage = test::randomBdd(mgr, 8, rng, 6);
    (void)garbage;
  }
  const std::uint64_t grown = mgr.allocatedNodes();
  mgr.gc();
  EXPECT_LT(mgr.allocatedNodes(), grown);
  // New work reuses freed slots before growing the arena.
  const std::uint64_t arena = grown;  // allocatedNodes counts live only
  const Bdd fresh = test::randomBdd(mgr, 8, rng, 4);
  (void)fresh;
  (void)arena;
  mgr.checkInvariants();
}

TEST(BddManagerBehaviour, GcIsDeterministicAcrossRefTableHistories) {
  // GC enumerates its roots from the refcount side table, an unordered_map
  // whose iteration order depends on its resize history.  The enumeration
  // is sorted by node index before marking, so two managers holding the
  // same functions behave identically even when their side tables grew
  // along completely different paths.  Build that divergence on purpose:
  // manager B starts from a different arena reservation and churns through
  // hundreds of short-lived handles (forcing side-table rehashes A never
  // performs) before running the common workload.
  const auto workload = [](BddManager& mgr) {
    Rng rng(29);
    std::vector<Bdd> kept;
    for (int i = 0; i < 16; ++i) {
      const Bdd f = test::randomBdd(mgr, 10, rng, 6);
      if (i % 2 == 0) kept.push_back(f);  // odd ones become garbage
    }
    return kept;
  };

  BddManager a;
  for (unsigned i = 0; i < 10; ++i) a.newVar();
  const std::vector<Bdd> rootsA = workload(a);

  BddOptions optsB;
  optsB.initialCapacity = 1u << 12;  // different reserve history from A
  BddManager b(optsB);
  for (unsigned i = 0; i < 10; ++i) b.newVar();
  {
    Rng churnRng(97);
    std::vector<Bdd> churn;
    for (int i = 0; i < 400; ++i) {
      churn.push_back(test::randomBdd(b, 10, churnRng, 3));
    }
  }
  b.gc();  // drop the churn; the side table keeps its grown bucket array
  const std::vector<Bdd> rootsB = workload(b);

  a.gc();
  b.gc();

  // Same functions, same live count, byte-identical canonical serialization
  // -- regardless of physical node indices or side-table layout.
  EXPECT_EQ(a.liveNodes(), b.liveNodes());
  std::ostringstream osA;
  std::ostringstream osB;
  saveBdds(osA, a, rootsA);
  saveBdds(osB, b, rootsB);
  EXPECT_EQ(osA.str(), osB.str());
  a.checkInvariants();
  b.checkInvariants();
}

}  // namespace
}  // namespace icb
