// NodeStore seam tests: the chunked arena, the packed 16-byte layout, the
// 27-bit index-space guard, the deref-underflow guard, and cross-layout
// persistence.
//
// The golden dumps below descend from files written by the PRE-packed node
// layout (the 20-byte struct-of-fields arena): the packed store must
// reproduce them bit-for-bit, both when rebuilding the same functions from
// the generating recipe and when round-tripping the files through load ->
// save.  That pins the on-disk formats (icbdd-bdd-v3, icbdd-ckpt-v1) as
// layout-independent contracts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
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
  // a handful of allocations instead of 2^27 of them.
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
  // 2^27 - 1 (134 M nodes): the largest edge, makeEdge(kMaxIndex, true),
  // then fits the computed cache's 28-bit h field, which is what lets a
  // cache entry be two words.  Every index also stays below kNil.
  EXPECT_EQ(NodeStore::kMaxIndex, 0x07FFFFFFu);
  EXPECT_EQ(makeEdge(NodeStore::kMaxIndex, true), 0x0FFFFFFFu);
  EXPECT_LT(NodeStore::kMaxIndex, NodeStore::kNil);
}

// ---------------------------------------------------------------------------
// deref-underflow guard (the double-release bugfix)

TEST(RefUnderflow, ThrowsUnderCheapChecking) {
  BddManager mgr;
  for (unsigned i = 0; i < 2; ++i) mgr.newVar();
  Bdd f = mgr.var(0) & mgr.var(1);
  const Edge e = f.edge();

  const test::ScopedCheckLevel level(CheckLevel::kCheap);
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

  const test::ScopedCheckLevel level(CheckLevel::kOff);
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
// Generator recipe (fixed forever -- the dumps below descend from files
// captured from it under the pre-packed layout): 8 variables x0..x7, Rng seed 77, six roots
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

/// Decodes an embedded golden: two hex digits per byte, whitespace ignored.
std::string fromHex(std::string_view hex) {
  std::string bytes;
  int high = -1;
  for (const char c : hex) {
    if (c == ' ' || c == '\n') continue;
    const int nibble = c <= '9' ? c - '0' : c - 'a' + 10;
    if (high < 0) {
      high = nibble;
    } else {
      bytes.push_back(static_cast<char>(high << 4 | nibble));
      high = -1;
    }
  }
  return bytes;
}

// The recipe's icbdd-bdd-v3 dump.  Derivation: the pre-packed layout wrote
// the recipe as a text icbdd-bdd-v2 file (embedded verbatim until the text
// format was retired); the last build that read v2 loaded that file and
// re-saved it as v3, and checked there that the recipe's own v3 dump is
// byte-identical to the result.
const std::string kGoldenDump = fromHex(R"(
69636264642d6264642d76330a04030201000000000800000000000000400000
0000000000060000000000000002000000783002000000783102000000783202
0000007833020000007834020000007835020000007836020000007837060000
0001000000070000000000000004000000030000000500000002000000000000
0003000000010000000000000000000000020000000100000000000000040000
0005000000000000000000000004000000050000000100000000000000000000
000400000009000000000000000a000000000000000700000000000000000000
00070000000c0000000000000000000000050000000400000000000000100000
0003000000060000000000000000000000050000000500000000000000140000
0003000000090000000000000000000000040000001600000000000000180000
0000000000130000000000000004000000030000000100000000000000000000
00000000001d000000000000001e000000070000001a00000000000000200000
00010000000e0000000000000008000000000000000600000000000000000000
0000000000010000000000000026000000070000002400000000000000160000
00000000001300000000000000040000000300000000000000000000002c0000
00000000001c000000000000002e000000070000002b00000000000000300000
0001000000280000000000000032000000060000002300000000000000000000
0003000000040000000000000012000000040000003600000000000000000000
00030000001000000000000000100000000300000000000000000000003c0000
00040000003a000000000000003e000000000000003800000000000000380000
0007000000400000000000000000000000040000001000000000000000440000
000100000042000000000000003a000000000000003600000000000000360000
0007000000480000000000000010000000010000004a000000000000004c0000
0006000000460000000000000000000000040000000100000000000000000000
0005000000010000000000000000000000040000005300000000000000000000
0000000000540000000000000052000000040000000000000000000000580000
000000000000000000000000005a000000070000005600000000000000000000
000000000058000000000000005e000000070000005a00000000000000600000
00010000005c0000000000000000000000040000005200000000000000640000
0000000000000000000000000000000000000000005200000000000000680000
0007000000660000000000000052000000040000000100000000000000580000
00000000006d0000000000000052000000000000000000000000000000700000
00070000006e0000000000000072000000010000006a00000000000000740000
0006000000620000000000000000000000030000005300000000000000040000
000300000053000000000000007a0000000400000078000000000000007c0000
0000000000530000000000000052000000060000007e00000000000000810000
0077000000510000004f00000035000000030000002402ee9433cfab41
)");

TEST(SerializeGolden, PackedStoreReproducesOldLayoutDump) {
  // Rebuilding the generating recipe under the packed store must produce
  // the byte-identical file the old layout wrote: node numbering, sharing,
  // complement placement, and the persisted order all survive the layout
  // change.
  BddManager mgr;
  const std::vector<Bdd> roots = buildGoldenRoots(mgr);
  std::ostringstream os;
  saveBdds(os, mgr, roots);
  EXPECT_EQ(os.str(), kGoldenDump);
}

TEST(SerializeGolden, OldLayoutFileRoundTripsBitForBit) {
  BddManager mgr;
  std::istringstream in(kGoldenDump);
  const std::vector<Bdd> loaded = loadBdds(in, mgr);
  ASSERT_EQ(loaded.size(), 6u);

  std::ostringstream os;
  saveBdds(os, mgr, loaded);
  EXPECT_EQ(os.str(), kGoldenDump);

  // And the loaded functions are the recipe's functions.
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
//
// Derivation as for kGoldenDump: the pre-packed layout wrote this snapshot
// with a text icbdd-bdd-v2 dump; the last build that read v2 loaded it into
// the model's manager and re-saved it with a v3 dump, and checked there
// that a fresh run's iteration-3 snapshot is byte-identical to the result.
const std::string kGoldenCkpt =
    "icbdd-ckpt-v1\n"
    "method Fwd\n"
    "iteration 3\n"
    "numbers 0\n"
    "lists 2 1 4\n" +
    fromHex(R"(
69636264642d6264642d76330a04030201000000002400000000000000a60000
0000000000050000000000000006000000696e5f73656c05000000696e5f6230
0500000071305f62300600000071305f6230270500000071315f623006000000
71315f6230270500000071325f62300600000071325f6230270500000071335f
62300600000071335f62302705000000696e5f62310500000071305f62310600
000071305f6231270500000071315f62310600000071315f6231270500000071
325f62310600000071325f6231270500000071335f62310600000071335f6231
2705000000696e5f62320500000071305f62320600000071305f623227050000
0071315f62320600000071315f6232270500000071325f62320600000071325f
6232270500000071335f62320600000071335f6232270500000071305f623306
00000071305f6233270500000071315f62330600000071315f62332705000000
71325f62330600000071325f6233270500000071335f62330600000071335f62
3327000000000100000002000000030000000400000005000000060000000700
000008000000090000000a0000000b0000000c0000000d0000000e0000000f00
0000100000001100000012000000130000001400000015000000160000001700
000018000000190000001a0000001b0000001c0000001d0000001e0000001f00
0000200000002100000022000000230000000000000022000000010000000000
000002000000200000000000000000000000000000001a000000040000000000
000000000000200000000200000000000000000000001a000000080000000000
00000a000000180000000600000000000000000000001e000000040000000000
0000000000001a0000000e00000000000000000000001e000000080000000000
0000000000001a00000012000000000000001400000018000000100000000000
000016000000160000000c00000000000000000000001c000000040000000000
0000000000001a0000001a00000000000000000000001c000000080000000000
0000000000001a0000001e0000000000000020000000180000001c0000000000
0000000000001c0000000e00000000000000000000001a000000240000000000
0000000000001c0000001200000000000000000000001a000000280000000000
00002a0000001800000026000000000000002c00000016000000220000000000
00002e0000001400000018000000000000000000000011000000300000000000
000014000000160000000a000000000000002a00000016000000200000000000
0000360000001400000034000000000000000000000011000000380000000000
00003a0000000f00000032000000000000002c00000014000000160000000000
000000000000110000003e000000000000002a00000014000000140000000000
000000000000110000004200000000000000440000000f000000400000000000
0000460000000d0000003c0000000000000000000000110000002e0000000000
0000000000001100000036000000000000004c0000000f0000004a0000000000
000000000000110000002c0000000000000000000000110000002a0000000000
0000520000000f0000005000000000000000540000000d0000004e0000000000
0000560000000b00000048000000000000000000000008000000580000000000
0000440000000d0000003a00000000000000520000000d0000004c0000000000
00005e0000000b0000005c000000000000000000000008000000600000000000
000062000000060000005a00000000000000540000000b000000460000000000
000000000000080000006600000000000000520000000b000000440000000000
000000000000080000006a000000000000006c00000006000000680000000000
00006e0000000400000064000000000000000000000008000000560000000000
000000000000080000005e000000000000007400000006000000720000000000
0000000000000800000054000000000000000000000008000000520000000000
00007a0000000600000078000000000000007c00000004000000760000000000
00007e000000020000007000000000000000080000001e000000000000000000
0000000000001a00000082000000000000000000000018000000840000000000
0000000000001800000014000000000000008800000016000000860000000000
0000000000001c0000008200000000000000000000001a0000008c0000000000
000000000000180000008e0000000000000000000000180000002a0000000000
00009200000016000000900000000000000094000000140000008a0000000000
000000000000110000009600000000000000000000000f000000980000000000
00009200000014000000880000000000000000000000110000009c0000000000
0000000000000f0000009e00000000000000a00000000d0000009a0000000000
000000000000110000009400000000000000000000000f000000a40000000000
000000000000110000009200000000000000000000000f000000a80000000000
0000aa0000000d000000a600000000000000ac0000000b000000a20000000000
00000000000008000000ae000000000000000000000006000000b00000000000
0000aa0000000b000000a0000000000000000000000008000000b40000000000
00000000000006000000b600000000000000b800000004000000b20000000000
00000000000008000000ac000000000000000000000006000000bc0000000000
00000000000008000000aa000000000000000000000006000000c00000000000
0000c200000004000000be00000000000000c400000002000000ba0000000000
0000120000001c0000000000000000000000000000001a000000c80000000000
00000000000018000000ca000000000000000000000016000000cc0000000000
000000000000160000009200000000000000d000000014000000ce0000000000
00000000000011000000d200000000000000000000000f000000d40000000000
0000000000000d000000d6000000000000000000000011000000d00000000000
0000000000000f000000da00000000000000000000000d000000dc0000000000
0000de0000000b000000d8000000000000000000000008000000e00000000000
00000000000006000000e2000000000000000000000004000000e40000000000
00000000000008000000de000000000000000000000006000000e80000000000
00000000000004000000ea00000000000000ec00000002000000e60000000000
00000000000014000000d0000000000000000000000011000000f00000000000
0000000000000f000000f200000000000000000000000d000000f40000000000
0000000000000b000000f6000000000000000000000008000000f80000000000
00000000000006000000fa000000000000000000000004000000fc0000000000
00000000000002000000fe00000000000000000000001a000000020000000000
00000a000000180000000201000000000000000000001e000000020000000000
0000000000001a00000006010000000000001400000018000000080100000000
00000a010000160000000401000000000000000000001c000000020000000000
0000000000001a0000000e010000000000002000000018000000100100000000
0000000000001c0000000601000000000000000000001a000000140100000000
00002a0000001800000016010000000000001801000016000000120100000000
00001a010000140000000c0100000000000000000000110000001c0100000000
00003a0000000f0000001e0100000000000018010000140000000a0100000000
000000000000110000002201000000000000440000000f000000240100000000
0000260100000d000000200100000000000000000000110000001a0100000000
00004c0000000f0000002a010000000000000000000011000000180100000000
0000520000000f0000002e01000000000000300100000d0000002c0100000000
0000320100000b00000028010000000000000000000008000000340100000000
000062000000060000003601000000000000300100000b000000260100000000
000000000000080000003a010000000000006c000000060000003c0100000000
00003e0100000400000038010000000000000000000008000000320100000000
0000740000000600000042010000000000000000000008000000300100000000
00007a0000000600000046010000000000004801000004000000440100000000
00004a0100000200000040010000000000004d01000001010000ef000000c700
0000810000002917eb3a312f0d9d
)");

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
