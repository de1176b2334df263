// NodeStore seam tests: the chunked arena, the packed 16-byte layout, the
// 31-bit index-space guard, the deref-underflow guard, and cross-layout
// persistence.
//
// The golden texts below were written by the PRE-packed node layout (the
// 20-byte struct-of-fields arena) and are embedded verbatim: the packed
// store must reproduce them bit-for-bit, both when rebuilding the same
// functions from the generating recipe and when round-tripping the files
// through load -> save.  That pins the on-disk formats (icbdd-bdd-v1/v2,
// icbdd-ckpt-v1) as layout-independent contracts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bdd/node_store.hpp"
#include "bdd/serialize.hpp"
#include "check/structural_checker.hpp"
#include "check/test_hooks.hpp"
#include "svc/job.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "verif/checkpoint.hpp"
#include "verif/run_all.hpp"

namespace icb {
namespace {

static_assert(sizeof(PackedNode) == 16,
              "the packed layout is the contract this suite pins down");

/// Restores the process check level on scope exit (the suite shares one
/// process; a leaked level would change every later test's behavior).
class ScopedCheckLevel {
 public:
  explicit ScopedCheckLevel(CheckLevel level) : saved_(checkLevel()) {
    setCheckLevel(level);
  }
  ~ScopedCheckLevel() { setCheckLevel(saved_); }

 private:
  CheckLevel saved_;
};

// ---------------------------------------------------------------------------
// chunked arena: records live in fixed 1024-record chunks that are added on
// growth and never moved, so everything below crosses several boundaries.

constexpr std::size_t kChunk = NodeStore::kChunkRecords;

/// A distinct, non-free triple per n (var stays below kTermVar).
struct Triple {
  unsigned var;
  Edge hi;
  Edge lo;
};
Triple tripleFor(std::uint32_t n) {
  return {n % 97, static_cast<Edge>(2 * n), static_cast<Edge>(2 * n + 3)};
}

/// Allocates triples 0..count-1; each variable's subtable grows itself.
std::vector<std::uint32_t> fill(NodeStore& store, std::uint32_t count) {
  std::vector<std::uint32_t> index;
  for (std::uint32_t n = 0; n < count; ++n) {
    const Triple t = tripleFor(n);
    index.push_back(store.allocate(t.var, t.hi, t.lo));
  }
  return index;
}

/// Every subtable keeps its load factor at most 1 and counts its chains.
void expectSubtablesSized(const NodeStore& store) {
  for (unsigned v = 0; v < store.subtableCount(); ++v) {
    std::uint64_t chained = 0;
    for (std::size_t b = 0; b < store.bucketCount(v); ++b) {
      for (std::uint32_t i = store.bucketHead(v, b); i != NodeStore::kNil;
           i = store.nextOf(i)) {
        EXPECT_EQ(store.varOf(i), v) << i;
        ++chained;
      }
    }
    EXPECT_EQ(chained, store.subtableSize(v)) << v;
    EXPECT_LE(store.subtableSize(v), store.bucketCount(v)) << v;
  }
}

TEST(NodeStoreArena, FreshRecordsDecodeExactlyAcrossChunkBoundaries) {
  NodeStore store(16);
  ASSERT_EQ(store.size(), 1u);  // the terminal alone
  EXPECT_EQ(store.varOf(0), NodeStore::kTermVar);

  const auto count = static_cast<std::uint32_t>(4 * kChunk + 5);
  std::uint64_t steps = 0;
  for (std::uint32_t n = 0; n < count; ++n) {
    // All-zero fields first: a record that was not zero when handed out
    // would leak its stale bits into exactly these.
    const Triple t = n == 0 ? Triple{0, 0, 0} : tripleFor(n);
    const std::uint32_t i = store.allocate(t.var, t.hi, t.lo);
    ASSERT_EQ(i, n + 1) << "fresh indices are dense";
    EXPECT_EQ(store.varOf(i), t.var) << i;
    EXPECT_EQ(store.hiOf(i), t.hi) << i;
    EXPECT_EQ(store.loOf(i), t.lo) << i;
    EXPECT_FALSE(store.isFree(i)) << i;
    EXPECT_EQ(store.find(t.var, t.hi, t.lo, &steps), i) << i;
  }
  EXPECT_EQ(store.size(), count + 1u);
  EXPECT_EQ(store.allocated(), count + 1u);
  EXPECT_GT(store.size(), 4 * kChunk);
}

TEST(NodeStoreArena, NodesKeepTheirFieldsAcrossGrowth) {
  NodeStore store(16);
  const std::vector<std::uint32_t> first = fill(store, kChunk / 2);
  // Edit two first-chunk nodes in place (the reorder path does this), then
  // grow the arena by several chunks and every subtable by several
  // doublings.
  const std::size_t headsBefore = store.bucketCount(5);
  store.setFields(first[7], 5, 40, 41);
  store.setHi(first[9], 99);
  for (std::uint32_t n = kChunk / 2; n < 5 * kChunk; ++n) {
    const Triple t = tripleFor(n);
    (void)store.allocate(t.var, t.hi, t.lo);
  }
  ASSERT_GT(store.size(), 5 * kChunk);
  EXPECT_GE(store.bucketCount(5), 4 * headsBefore);

  EXPECT_EQ(store.varOf(first[7]), 5u);
  EXPECT_EQ(store.hiOf(first[7]), 40u);
  EXPECT_EQ(store.loOf(first[7]), 41u);
  EXPECT_EQ(store.hiOf(first[9]), 99u);
  std::uint64_t steps = 0;
  for (std::uint32_t n = 0; n < first.size(); ++n) {
    if (n == 7 || n == 9) continue;
    const Triple t = tripleFor(n);
    EXPECT_EQ(store.varOf(first[n]), t.var) << n;
    EXPECT_EQ(store.hiOf(first[n]), t.hi) << n;
    EXPECT_EQ(store.loOf(first[n]), t.lo) << n;
    EXPECT_EQ(store.find(t.var, t.hi, t.lo, &steps), first[n]) << n;
  }
}

TEST(NodeStoreArena, FreeListAndRehashSpanEveryChunk) {
  NodeStore store(16);
  const std::vector<std::uint32_t> index = fill(store, 3 * kChunk);
  expectSubtablesSized(store);
  // Free every third node -- records in every chunk -- the way GC's sweep
  // does, then rebuild the chains over the whole multi-chunk arena.
  store.resetFreeList();
  std::uint64_t freed = 0;
  for (std::uint32_t n = 0; n < index.size(); n += 3) {
    store.pushFree(index[n]);
    ++freed;
  }
  store.rebuildSubtables();
  EXPECT_EQ(store.freeCount(), freed);
  expectSubtablesSized(store);
  std::uint64_t steps = 0;
  for (std::uint32_t n = 0; n < index.size(); ++n) {
    const Triple t = tripleFor(n);
    if (n % 3 == 0) {
      EXPECT_TRUE(store.isFree(index[n])) << n;
      EXPECT_EQ(store.hiOf(index[n]), 0u) << n;
      EXPECT_EQ(store.loOf(index[n]), 0u) << n;
      EXPECT_EQ(store.find(t.var, t.hi, t.lo, &steps), NodeStore::kNil) << n;
    } else {
      EXPECT_EQ(store.find(t.var, t.hi, t.lo, &steps), index[n]) << n;
    }
  }
  // Reallocation drains the free list before the arena grows again.
  const std::size_t extent = store.size();
  for (std::uint64_t k = 0; k < freed; ++k) {
    const Triple t = tripleFor(static_cast<std::uint32_t>(10 * kChunk + k));
    const std::uint32_t i = store.allocate(t.var, t.hi, t.lo);
    EXPECT_LT(i, extent);
    EXPECT_EQ(store.varOf(i), t.var);
  }
  EXPECT_EQ(store.size(), extent);
  EXPECT_EQ(store.freeCount(), 0u);
  EXPECT_TRUE(store.wouldGrow());
  expectSubtablesSized(store);
}

TEST(NodeStoreArena, GcOverMultiChunkArenaKeepsAuditClean) {
  BddManager mgr;
  for (unsigned i = 0; i < 14; ++i) mgr.newVar();
  Rng rng(5);
  std::vector<Bdd> keep;
  std::vector<double> counts;
  {
    std::vector<Bdd> scratch;
    while (NodeSurgeon::nodeCount(mgr) < 4 * kChunk) {
      scratch.push_back(test::randomBdd(mgr, 14, rng, 7));
      if (scratch.size() % 4 == 0) {
        keep.push_back(scratch.back());
        counts.push_back(keep.back().satCount(14));
      }
    }
  }  // three quarters of the roots die here
  const std::uint32_t extent = NodeSurgeon::nodeCount(mgr);
  ASSERT_GT(extent, 4 * kChunk);

  EXPECT_GT(mgr.gc(), 0u);  // sweep + subtable rebuild over every chunk
  EXPECT_EQ(NodeSurgeon::nodeCount(mgr), extent) << "chunks are never freed";
  EXPECT_TRUE(StructuralChecker(mgr).run(CheckLevel::kFull).ok());

  // Refill the swept holes and grow past the old extent; the survivors
  // still denote what they did.
  std::vector<Bdd> more;
  while (NodeSurgeon::nodeCount(mgr) < extent + 2 * kChunk) {
    more.push_back(test::randomBdd(mgr, 14, rng, 7));
  }
  const CheckReport report = StructuralChecker(mgr).run(CheckLevel::kFull);
  EXPECT_TRUE(report.ok()) << report.summary();
  for (std::size_t k = 0; k < keep.size(); ++k) {
    EXPECT_EQ(keep[k].satCount(14), counts[k]) << k;
  }
}

// ---------------------------------------------------------------------------
// index-space guard (the arena-bounds bugfix)

TEST(NodeIndexSpace, AllocationPastCapThrowsTypedError) {
  BddManager mgr;
  for (unsigned i = 0; i < 8; ++i) mgr.newVar();

  std::vector<Bdd> keep;  // pin everything so GC cannot mask the cap
  keep.push_back(mgr.var(0) & mgr.var(1));

  // Lower the cap to just above the current arena so the guard trips after
  // a handful of allocations instead of 2^31 of them.
  const std::uint32_t cap = NodeSurgeon::nodeCount(mgr) + 4;
  NodeSurgeon::capNodeIndexSpace(mgr, cap);

  Rng rng(11);
  bool tripped = false;
  try {
    for (int i = 0; i < 64; ++i) {
      keep.push_back(test::randomBdd(mgr, 8, rng, 6));
    }
  } catch (const ResourceLimitError& err) {
    tripped = true;
    EXPECT_EQ(err.kind(), ResourceKind::kNodeIndexSpace);
    EXPECT_NE(std::string(err.what()).find("index space"), std::string::npos);
  }
  ASSERT_TRUE(tripped) << "cap " << cap << " never tripped";

  // The throw must leave the store fully consistent (no half-linked node)...
  EXPECT_TRUE(StructuralChecker(mgr).run(CheckLevel::kFull).ok());
  EXPECT_LE(NodeSurgeon::nodeCount(mgr), cap + 1u);

  // ...and the manager usable: existing functions still evaluate, and with
  // the cap lifted the same construction goes through.
  NodeSurgeon::capNodeIndexSpace(mgr, NodeStore::kMaxIndex);
  const Bdd resumed = test::randomBdd(mgr, 8, rng, 4) & keep.front();
  EXPECT_TRUE((resumed & !resumed).isZero());
}

TEST(NodeIndexSpace, CapDefaultsToEdgeEncodingCeiling) {
  BddManager mgr;
  mgr.newVar();
  // One below kNil: a fresh index can never collide with the null link nor
  // overflow the 31-bit index field of Edge.
  EXPECT_EQ(NodeStore::kMaxIndex, 0x7FFFFFFEu);
}

// ---------------------------------------------------------------------------
// deref-underflow guard (the double-release bugfix)

TEST(RefUnderflow, ThrowsUnderCheapChecking) {
  BddManager mgr;
  for (unsigned i = 0; i < 2; ++i) mgr.newVar();
  Bdd f = mgr.var(0) & mgr.var(1);
  const Edge e = f.edge();

  const ScopedCheckLevel level(CheckLevel::kCheap);
  // First release is legitimate (f holds exactly one count)...
  NodeSurgeon::derefEdge(mgr, e);
  // ...the second is a double release and must be loud.
  bool threw = false;
  try {
    NodeSurgeon::derefEdge(mgr, e);
  } catch (const CheckFailure& err) {
    threw = true;
    EXPECT_EQ(err.kind(), ViolationKind::kRefUnderflow);
  }
  EXPECT_TRUE(threw);

  // Hand the count back before ~Bdd releases it, so the destructor's own
  // deref stays balanced (a CheckFailure from a destructor would terminate).
  NodeSurgeon::setRef(mgr, edgeIndex(e), 1);
}

TEST(RefUnderflow, CountedSilentlyWhenCheckingIsOff) {
  BddManager mgr;
  for (unsigned i = 0; i < 2; ++i) mgr.newVar();
  Bdd f = mgr.var(0) | mgr.var(1);
  const Edge e = f.edge();

  const ScopedCheckLevel level(CheckLevel::kOff);
  const std::uint64_t before = mgr.stats().refUnderflows;
  NodeSurgeon::derefEdge(mgr, e);  // legitimate: drops 1 -> 0
  EXPECT_EQ(mgr.stats().refUnderflows, before);
  NodeSurgeon::derefEdge(mgr, e);  // double release: counted, not thrown
  NodeSurgeon::derefEdge(mgr, e);
  EXPECT_EQ(mgr.stats().refUnderflows, before + 2);

  NodeSurgeon::setRef(mgr, edgeIndex(e), 1);
}

// ---------------------------------------------------------------------------
// cross-layout persistence goldens
//
// Generator recipe (fixed forever -- the texts below were captured from it
// under the pre-packed layout): 8 variables x0..x7, Rng seed 77, six roots
// of goldenRandomBdd depth 5, then applyVarOrder({6,1,7,0,4,3,5,2}).

Bdd goldenRandomBdd(BddManager& mgr, unsigned vars, Rng& rng, unsigned depth) {
  if (depth == 0 || rng.below(8) == 0) {
    const unsigned v = static_cast<unsigned>(rng.below(vars));
    return rng.below(2) != 0 ? mgr.var(v) : mgr.nvar(v);
  }
  const Bdd a = goldenRandomBdd(mgr, vars, rng, depth - 1);
  const Bdd b = goldenRandomBdd(mgr, vars, rng, depth - 1);
  switch (rng.below(3)) {
    case 0: return a & b;
    case 1: return a | b;
    default: return a ^ b;
  }
}

std::vector<Bdd> buildGoldenRoots(BddManager& mgr) {
  for (unsigned i = 0; i < 8; ++i) mgr.newVar("x" + std::to_string(i));
  Rng rng(77);
  std::vector<Bdd> roots;
  for (int i = 0; i < 6; ++i) roots.push_back(goldenRandomBdd(mgr, 8, rng, 5));
  const std::vector<unsigned> shuffled{6, 1, 7, 0, 4, 3, 5, 2};
  applyVarOrder(mgr, shuffled);
  return roots;
}

const char kGoldenV2[] = R"(icbdd-bdd-v2
vars 8
v 0 x0
v 1 x1
v 2 x2
v 3 x3
v 4 x4
v 5 x5
v 6 x6
v 7 x7
order 6 1 7 0 4 3 5 2
nodes 64
n 0 3 T F
n 1 2 T F
n 2 5 1 T
n 3 5 1 F
n 4 4 T !3
n 5 0 4 !2
n 6 7 T 5
n 7 5 T 1
n 8 3 7 2
n 9 5 T !1
n 10 3 9 !3
n 11 4 T 10
n 12 0 11 !8
n 13 3 1 F
n 14 0 T !13
n 15 7 14 12
n 16 1 15 6
n 17 0 3 2
n 18 0 T F
n 19 7 18 17
n 20 0 10 !8
n 21 3 1 T
n 22 0 21 13
n 23 7 22 !20
n 24 1 23 19
n 25 6 24 !16
n 26 3 T 1
n 27 4 8 26
n 28 3 T 7
n 29 3 7 T
n 30 4 29 28
n 31 0 30 27
n 32 7 27 31
n 33 4 T 7
n 34 1 33 32
n 35 0 28 26
n 36 7 26 35
n 37 1 7 36
n 38 6 37 34
n 39 4 T F
n 40 5 T F
n 41 4 T !40
n 42 0 T 41
n 43 4 40 T
n 44 0 43 T
n 45 7 44 42
n 46 0 T 43
n 47 7 46 44
n 48 1 47 45
n 49 4 T 40
n 50 0 49 T
n 51 0 T 40
n 52 7 51 50
n 53 4 40 F
n 54 0 43 !53
n 55 0 40 T
n 56 7 55 54
n 57 1 56 52
n 58 6 57 48
n 59 3 T !40
n 60 3 1 !40
n 61 4 60 59
n 62 0 61 !40
n 63 6 40 62
roots 6
r !63
r !58
r !39
r !38
r !25
r !0
)";

TEST(SerializeGolden, PackedStoreReproducesOldLayoutV2Dump) {
  // Rebuilding the generating recipe under the packed store must produce
  // the byte-identical file the old layout wrote: node numbering, sharing,
  // complement placement, and the persisted order all survive the layout
  // change.
  BddManager mgr;
  const std::vector<Bdd> roots = buildGoldenRoots(mgr);
  std::ostringstream os;
  saveBdds(os, mgr, roots);
  EXPECT_EQ(os.str(), kGoldenV2);
}

TEST(SerializeGolden, OldLayoutV2FileRoundTripsBitForBit) {
  BddManager mgr;
  std::istringstream in(kGoldenV2);
  const std::vector<Bdd> loaded = loadBdds(in, mgr);
  ASSERT_EQ(loaded.size(), 6u);

  std::ostringstream os;
  saveBdds(os, mgr, loaded);
  EXPECT_EQ(os.str(), kGoldenV2);

  // And the loaded functions are the recipe's functions.
  BddManager ref;
  const std::vector<Bdd> rebuilt = buildGoldenRoots(ref);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(test::truthTable(loaded[i], 8), test::truthTable(rebuilt[i], 8))
        << "root " << i;
  }
}

TEST(SerializeGolden, OldLayoutV1FileStillLoads) {
  // v1 == v2 minus the order line, under the v1 magic.  Derive it from the
  // golden so the two cannot drift apart.
  std::string v1(kGoldenV2);
  v1.replace(v1.find("icbdd-bdd-v2"), 12, "icbdd-bdd-v1");
  const std::size_t orderAt = v1.find("order ");
  ASSERT_NE(orderAt, std::string::npos);
  v1.erase(orderAt, v1.find('\n', orderAt) - orderAt + 1);

  BddManager mgr;  // empty: load creates the variables, order stays identity
  std::istringstream in(v1);
  const std::vector<Bdd> loaded = loadBdds(in, mgr);
  ASSERT_EQ(loaded.size(), 6u);

  BddManager ref;
  const std::vector<Bdd> rebuilt = buildGoldenRoots(ref);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(test::truthTable(loaded[i], 8), test::truthTable(rebuilt[i], 8))
        << "root " << i;
  }
}

// ---------------------------------------------------------------------------
// checkpoint cross-layout resume
//
// Snapshot captured under the pre-packed layout from: fifo model, size 4,
// width 4, forward reachability, checkpoint every iteration, snapshot taken
// at iteration 3 of 5.  The full run holds (verdict kHolds, 5 iterations).

const char kGoldenCkpt[] = R"(icbdd-ckpt-v1
method Fwd
iteration 3
numbers 0
lists 2 1 4
icbdd-bdd-v2
vars 36
v 0 in_sel
v 1 in_b0
v 2 q0_b0
v 3 q0_b0'
v 4 q1_b0
v 5 q1_b0'
v 6 q2_b0
v 7 q2_b0'
v 8 q3_b0
v 9 q3_b0'
v 10 in_b1
v 11 q0_b1
v 12 q0_b1'
v 13 q1_b1
v 14 q1_b1'
v 15 q2_b1
v 16 q2_b1'
v 17 q3_b1
v 18 q3_b1'
v 19 in_b2
v 20 q0_b2
v 21 q0_b2'
v 22 q1_b2
v 23 q1_b2'
v 24 q2_b2
v 25 q2_b2'
v 26 q3_b2
v 27 q3_b2'
v 28 q0_b3
v 29 q0_b3'
v 30 q1_b3
v 31 q1_b3'
v 32 q2_b3
v 33 q2_b3'
v 34 q3_b3
v 35 q3_b3'
order 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35
nodes 166
n 0 34 T F
n 1 32 0 T
n 2 26 T 1
n 3 32 T 0
n 4 26 T 3
n 5 24 4 2
n 6 30 T 1
n 7 26 T 6
n 8 30 T 3
n 9 26 T 8
n 10 24 9 7
n 11 22 10 5
n 12 28 T 1
n 13 26 T 12
n 14 28 T 3
n 15 26 T 14
n 16 24 15 13
n 17 28 T 6
n 18 26 T 17
n 19 28 T 8
n 20 26 T 19
n 21 24 20 18
n 22 22 21 16
n 23 20 22 11
n 24 17 T 23
n 25 22 9 4
n 26 22 20 15
n 27 20 26 25
n 28 17 T 27
n 29 15 28 24
n 30 20 21 10
n 31 17 T 30
n 32 20 20 9
n 33 17 T 32
n 34 15 33 31
n 35 13 34 29
n 36 17 T 22
n 37 17 T 26
n 38 15 37 36
n 39 17 T 21
n 40 17 T 20
n 41 15 40 39
n 42 13 41 38
n 43 11 42 35
n 44 8 T 43
n 45 13 33 28
n 46 13 40 37
n 47 11 46 45
n 48 8 T 47
n 49 6 48 44
n 50 11 41 34
n 51 8 T 50
n 52 11 40 33
n 53 8 T 52
n 54 6 53 51
n 55 4 54 49
n 56 8 T 42
n 57 8 T 46
n 58 6 57 56
n 59 8 T 41
n 60 8 T 40
n 61 6 60 59
n 62 4 61 58
n 63 2 62 55
n 64 30 3 T
n 65 26 T 64
n 66 24 T 65
n 67 24 T 9
n 68 22 67 66
n 69 28 T 64
n 70 26 T 69
n 71 24 T 70
n 72 24 T 20
n 73 22 72 71
n 74 20 73 68
n 75 17 T 74
n 76 15 T 75
n 77 20 72 67
n 78 17 T 77
n 79 15 T 78
n 80 13 79 76
n 81 17 T 73
n 82 15 T 81
n 83 17 T 72
n 84 15 T 83
n 85 13 84 82
n 86 11 85 80
n 87 8 T 86
n 88 6 T 87
n 89 11 84 79
n 90 8 T 89
n 91 6 T 90
n 92 4 91 88
n 93 8 T 85
n 94 6 T 93
n 95 8 T 84
n 96 6 T 95
n 97 4 96 94
n 98 2 97 92
n 99 28 8 T
n 100 26 T 99
n 101 24 T 100
n 102 22 T 101
n 103 22 T 72
n 104 20 103 102
n 105 17 T 104
n 106 15 T 105
n 107 13 T 106
n 108 17 T 103
n 109 15 T 108
n 110 13 T 109
n 111 11 110 107
n 112 8 T 111
n 113 6 T 112
n 114 4 T 113
n 115 8 T 110
n 116 6 T 115
n 117 4 T 116
n 118 2 117 114
n 119 20 T 103
n 120 17 T 119
n 121 15 T 120
n 122 13 T 121
n 123 11 T 122
n 124 8 T 123
n 125 6 T 124
n 126 4 T 125
n 127 2 T 126
n 128 26 T 0
n 129 24 4 128
n 130 30 T 0
n 131 26 T 130
n 132 24 9 131
n 133 22 132 129
n 134 28 T 0
n 135 26 T 134
n 136 24 15 135
n 137 28 T 130
n 138 26 T 137
n 139 24 20 138
n 140 22 139 136
n 141 20 140 133
n 142 17 T 141
n 143 15 28 142
n 144 20 139 132
n 145 17 T 144
n 146 15 33 145
n 147 13 146 143
n 148 17 T 140
n 149 15 37 148
n 150 17 T 139
n 151 15 40 150
n 152 13 151 149
n 153 11 152 147
n 154 8 T 153
n 155 6 48 154
n 156 11 151 146
n 157 8 T 156
n 158 6 53 157
n 159 4 158 155
n 160 8 T 152
n 161 6 57 160
n 162 8 T 151
n 163 6 60 162
n 164 4 163 161
n 165 2 164 159
roots 5
r !165
r !127
r !118
r !98
r !63
)";

svc::JobRequest goldenCkptRequest() {
  svc::JobRequest req;
  req.id = "golden";
  req.model = "fifo";
  req.method = Method::kFwd;
  req.size = 4;
  req.width = 4;
  return req;
}

TEST(CheckpointGolden, OldLayoutSnapshotRoundTripsBitForBit) {
  const svc::JobRequest req = goldenCkptRequest();
  BddManager mgr(svc::bddOptionsFor(req));
  ModelInstance model = svc::buildJobModel(mgr, req);
  (void)model;

  std::istringstream in(kGoldenCkpt);
  const EngineSnapshot snapshot = loadSnapshot(in, mgr);
  EXPECT_EQ(snapshot.method, Method::kFwd);
  EXPECT_EQ(snapshot.iteration, 3u);

  std::ostringstream os;
  saveSnapshot(os, mgr, snapshot);
  EXPECT_EQ(os.str(), kGoldenCkpt);
}

TEST(CheckpointGolden, ResumeFromOldLayoutSnapshotMatchesFreshRun) {
  const svc::JobRequest req = goldenCkptRequest();

  BddManager mgr(svc::bddOptionsFor(req));
  ModelInstance model = svc::buildJobModel(mgr, req);
  std::istringstream in(kGoldenCkpt);
  const EngineSnapshot snapshot = loadSnapshot(in, mgr);
  EngineOptions options = svc::engineOptionsFor(req);
  options.checkpoint.resume = &snapshot;
  const EngineResult resumed =
      runMethod(*model.fsm, req.method, model.fdCandidates, options);

  // The uninterrupted run (captured with the golden) holds in 5 iterations;
  // resuming the old-layout snapshot under the packed store must agree.
  EXPECT_EQ(resumed.verdict, Verdict::kHolds);
  EXPECT_EQ(resumed.iterations, 5u);

  BddManager freshMgr(svc::bddOptionsFor(req));
  ModelInstance freshModel = svc::buildJobModel(freshMgr, req);
  const EngineResult fresh = runMethod(*freshModel.fsm, req.method,
                                       freshModel.fdCandidates,
                                       svc::engineOptionsFor(req));
  EXPECT_EQ(fresh.verdict, resumed.verdict);
  EXPECT_EQ(fresh.iterations, resumed.iterations);
}

}  // namespace
}  // namespace icb
