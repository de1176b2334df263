// Round-trip tests for the icbdd-bdd-v3 BDD serialization, plus a
// fuzz-style corpus sweep proving that every truncation or corruption fails
// as a typed SerializeError with a byte offset -- never a crash, a hang, or
// a silent partial load.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/serialize.hpp"
#include "test_util.hpp"

namespace icb {
namespace {

/// A small but representative dump: complement edges, shared subgraphs,
/// constant and non-constant roots.  Its 4 variables are named v0..v3 and
/// sit in the default order; its first node record tests v3.
std::string corpusDump() {
  BddManager src;
  for (unsigned i = 0; i < 4; ++i) src.newVar("v" + std::to_string(i));
  const Bdd common = src.var(1) ^ src.var(2);
  const std::vector<Bdd> roots{src.var(0) & common, !common, src.one(),
                               (src.var(3) | common) & src.var(0)};
  std::ostringstream os;
  saveBdds(os, src, roots);
  return os.str();
}

constexpr std::size_t kMagicSize = sizeof "icbdd-bdd-v3\n" - 1;
constexpr std::size_t kHeaderSize = kMagicSize + 4 + 4 + 3 * 8;

/// Offset of the corpus dump's first node record: after the header, the
/// four one-letter-plus-digit names (u32 length + 2 bytes) and the order.
constexpr std::size_t kCorpusFirstRecord = kHeaderSize + 4 * (4 + 2) + 4 * 4;

/// Re-computes the trailing FNV-1a checksum after a deliberate edit, so the
/// edit reaches the loader's structural checks instead of the checksum.
std::string resealed(std::string dump) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = kMagicSize; i + 8 < dump.size(); ++i) {
    hash = (hash ^ static_cast<unsigned char>(dump[i])) * 0x100000001b3ull;
  }
  for (int i = 0; i < 8; ++i) {
    dump[dump.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>(hash >> (8 * i));
  }
  return dump;
}

/// Loading `bytes` into a fresh manager must throw SerializeError whose
/// message contains `needle`.
void expectRejected(const std::string& bytes, const std::string& needle) {
  BddManager mgr;
  std::istringstream is(bytes);
  try {
    (void)loadBdds(is, mgr);
    FAIL() << "loaded successfully; expected '" << needle << "'";
  } catch (const SerializeError& err) {
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << err.what();
  }
}

TEST(Serialize, RoundTripRandomFunctions) {
  BddManager src;
  constexpr unsigned kVars = 8;
  for (unsigned i = 0; i < kVars; ++i) src.newVar("x" + std::to_string(i));
  Rng rng(5);
  std::vector<Bdd> roots;
  std::vector<std::vector<char>> tables;
  for (int i = 0; i < 10; ++i) {
    roots.push_back(test::randomBdd(src, kVars, rng));
    tables.push_back(test::truthTable(roots.back(), kVars));
  }

  std::ostringstream os;
  saveBdds(os, src, roots);

  BddManager dst;  // empty: variables come from the file
  std::istringstream is(os.str());
  const std::vector<Bdd> loaded = loadBdds(is, dst);
  ASSERT_EQ(loaded.size(), roots.size());
  EXPECT_EQ(dst.varCount(), kVars);
  EXPECT_EQ(dst.varName(3), "x3");
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(test::truthTable(loaded[i], kVars), tables[i]);
  }
}

TEST(Serialize, RoundTripIntoExistingManagerPreservesSharing) {
  BddManager src;
  for (unsigned i = 0; i < 6; ++i) src.newVar();
  const Bdd common = src.var(2) ^ src.var(3);
  const std::vector<Bdd> roots{src.var(0) & common, src.var(1) & common,
                               !common};
  std::ostringstream os;
  saveBdds(os, src, roots);

  BddManager dst;
  for (unsigned i = 0; i < 6; ++i) dst.newVar();
  std::istringstream is(os.str());
  const std::vector<Bdd> loaded = loadBdds(is, dst);
  // Sharing survives: the shared-DAG size matches the source.
  EXPECT_EQ(sharedSize(loaded), sharedSize(roots));
  // Complement-edge round trip: third root is the negation of the common part.
  EXPECT_EQ(loaded[2], !(loaded[0].exists(Bdd(&dst, dst.cubeE(std::vector<unsigned>{0})))));
}

TEST(Serialize, ConstantsAndEmptyRootList) {
  BddManager src;
  src.newVar();
  const std::vector<Bdd> roots{src.one(), src.zero()};
  std::ostringstream os;
  saveBdds(os, src, roots);
  BddManager dst;
  std::istringstream is(os.str());
  const auto loaded = loadBdds(is, dst);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded[0].isOne());
  EXPECT_TRUE(loaded[1].isZero());
}

TEST(Serialize, RejectsGarbage) {
  expectRejected("not-a-bdd-file\n", "bad magic 'not-a-bdd-fil'");
  // The retired text formats are refused by their magic, not misparsed.
  expectRejected("icbdd-bdd-v1\nvars 1\nv 0 x\nnodes 1\nn 0 0 T Q\n",
                 "bad magic 'icbdd-bdd-v1'");
  expectRejected("icbdd-bdd-v2\nvars 1\nv 0 x\norder 0\nnodes 0\nroots 0\n",
                 "bad magic 'icbdd-bdd-v2'");

  const std::string dump = corpusDump();
  ASSERT_EQ(dump[kCorpusFirstRecord + 4], 3);  // node 0 tests v3
  {
    // A child reference to a node not yet decoded (hi ref of node 0 -> 5).
    std::string bad = dump;
    bad[kCorpusFirstRecord] = static_cast<char>((5 + 1) << 1);
    expectRejected(resealed(bad), "points past the nodes decoded so far");
  }
  {
    // A node variable the file does not declare.
    std::string bad = dump;
    bad[kCorpusFirstRecord + 4] = 9;
    expectRejected(resealed(bad), "node variable 9 out of range");
  }
  {
    // An order table that is not a permutation (level 1 repeats v0).
    std::string bad = dump;
    bad[kCorpusFirstRecord - 12] = 0;
    expectRejected(resealed(bad), "not a permutation");
  }
  // Truncated file: the magic and endian tag only.
  expectRejected(dump.substr(0, kMagicSize + 4), "truncated");
}

TEST(Serialize, RoundTripAfterReordering) {
  // Serialization stores variables, not levels: a file written under a
  // sifted order loads into a fresh manager and still denotes the same
  // functions.  The file also carries the writer's level->var map, so the
  // fresh manager additionally adopts the sifted order.
  BddManager src;
  constexpr unsigned kVars = 8;
  for (unsigned i = 0; i < kVars; ++i) src.newVar();
  Rng rng(11);
  const Bdd f = test::randomBdd(src, kVars, rng, 6);
  const auto table = test::truthTable(f, kVars);
  src.sift();
  std::ostringstream os;
  const std::vector<Bdd> roots{f};
  saveBdds(os, src, roots);

  BddManager dst;
  std::istringstream is(os.str());
  const auto loaded = loadBdds(is, dst);
  EXPECT_EQ(test::truthTable(loaded[0], kVars), table);
}

TEST(Serialize, OrderRestoredIntoAutoReorderManager) {
  // applyVarOrder must compose with a destination manager that has dynamic
  // reordering enabled (the service resumes jobs with auto_reorder on).
  BddManager src;
  constexpr unsigned kVars = 6;
  for (unsigned i = 0; i < kVars; ++i) src.newVar();
  Rng rng(31);
  const Bdd f = test::randomBdd(src, kVars, rng, 6);
  const auto table = test::truthTable(f, kVars);
  applyVarOrder(src, std::vector<unsigned>{5, 3, 1, 0, 2, 4});

  std::ostringstream os;
  const std::vector<Bdd> roots{f};
  saveBdds(os, src, roots);

  BddOptions opts;
  opts.autoReorder = true;
  BddManager dst(opts);
  std::istringstream is(os.str());
  const auto loaded = loadBdds(is, dst);
  for (unsigned level = 0; level < kVars; ++level) {
    EXPECT_EQ(dst.varAtLevel(level), src.varAtLevel(level)) << "level " << level;
  }
  EXPECT_EQ(test::truthTable(loaded[0], kVars), table);
}

TEST(Serialize, ApplyVarOrderRejectsBadPermutations) {
  BddManager mgr;
  for (unsigned i = 0; i < 4; ++i) mgr.newVar();
  {
    const std::vector<unsigned> tooShort{2, 1, 0};
    EXPECT_THROW(applyVarOrder(mgr, tooShort), BddUsageError);
  }
  {
    const std::vector<unsigned> duplicate{0, 1, 1, 3};
    EXPECT_THROW(applyVarOrder(mgr, duplicate), BddUsageError);
  }
  {
    const std::vector<unsigned> outOfRange{0, 1, 2, 4};
    EXPECT_THROW(applyVarOrder(mgr, outOfRange), BddUsageError);
  }
  const std::vector<unsigned> order{3, 1, 0, 2};
  applyVarOrder(mgr, order);
  for (unsigned level = 0; level < 4; ++level) {
    EXPECT_EQ(mgr.varAtLevel(level), order[level]);
  }
}

// ---------------------------------------------------------------------------
// Byte-level properties of the format

TEST(SerializeV3, BinaryRoundTripIsBitIdentical) {
  BddManager src;
  constexpr unsigned kVars = 8;
  for (unsigned i = 0; i < kVars; ++i) src.newVar("x" + std::to_string(i));
  Rng rng(7);
  std::vector<Bdd> roots;
  std::vector<std::vector<char>> tables;
  for (int i = 0; i < 10; ++i) {
    roots.push_back(test::randomBdd(src, kVars, rng));
    tables.push_back(test::truthTable(roots.back(), kVars));
  }
  roots.push_back(src.one());
  roots.push_back(src.zero());
  roots.push_back(!roots[0]);

  std::ostringstream os;
  saveBdds(os, src, roots);
  const std::string dump = os.str();

  BddManager dst;  // empty: variables come from the file
  std::istringstream is(dump);
  const std::vector<Bdd> loaded = loadBdds(is, dst);
  ASSERT_EQ(loaded.size(), roots.size());
  EXPECT_EQ(dst.varCount(), kVars);
  EXPECT_EQ(dst.varName(3), "x3");
  for (std::size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(test::truthTable(loaded[i], kVars), tables[i]);
  }
  EXPECT_TRUE(loaded[tables.size()].isOne());
  EXPECT_TRUE(loaded[tables.size() + 1].isZero());
  EXPECT_EQ(loaded[tables.size() + 2], !loaded[0]);

  // Bit-identical re-dump: same vars, same order, same DAG => the second
  // writer walks the identical topological order and emits the same bytes.
  std::ostringstream os2;
  saveBdds(os2, dst, loaded);
  EXPECT_EQ(os2.str(), dump);
}

TEST(SerializeV3, BinaryPersistsVariableOrderAndSharing) {
  // The regression this guards: a snapshot taken after dynamic reordering
  // must restore into a manager with the *same* order, or resumed runs see
  // differently-shaped (Restrict-simplified) BDDs and diverge byte-wise.
  BddManager src;
  constexpr unsigned kVars = 8;
  for (unsigned i = 0; i < kVars; ++i) src.newVar("x" + std::to_string(i));
  Rng rng(13);
  std::vector<Bdd> roots;
  for (int i = 0; i < 6; ++i) roots.push_back(test::randomBdd(src, kVars, rng, 5));
  // Force a decidedly non-default order (a sift() might settle on identity).
  const std::vector<unsigned> shuffled{6, 2, 7, 0, 5, 1, 4, 3};
  applyVarOrder(src, shuffled);
  for (unsigned level = 0; level < kVars; ++level) {
    ASSERT_EQ(src.varAtLevel(level), shuffled[level]);
  }

  std::ostringstream os;
  saveBdds(os, src, roots);
  BddManager dst;  // fresh: variables, names and order come from the file
  std::istringstream is(os.str());
  const auto loaded = loadBdds(is, dst);
  ASSERT_EQ(dst.varCount(), kVars);
  EXPECT_EQ(dst.varName(5), "x5");
  for (unsigned level = 0; level < kVars; ++level) {
    EXPECT_EQ(dst.varAtLevel(level), shuffled[level]) << "level " << level;
  }
  // Same order => structurally identical DAG, not just the same functions.
  EXPECT_EQ(sharedSize(loaded), sharedSize(roots));
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(test::truthTable(loaded[i], kVars),
              test::truthTable(roots[i], kVars));
  }
}

TEST(SerializeV3, InspectDumpReportsHeaderWithoutLoading) {
  BddManager src;
  for (unsigned i = 0; i < 4; ++i) src.newVar();
  Rng rng(19);
  const std::vector<Bdd> roots{test::randomBdd(src, 4, rng, 4),
                               test::randomBdd(src, 4, rng, 4)};
  std::ostringstream os;
  saveBdds(os, src, roots);
  std::istringstream is(os.str());
  const DumpInfo info = inspectDump(is);
  EXPECT_EQ(info.varCount, 4u);
  EXPECT_EQ(info.rootCount, 2u);
  EXPECT_GT(info.nodeCount, 0u);
  EXPECT_EQ(info.nodeBytes, info.nodeCount * 16);

  // readDump decodes the records the header announces, still without
  // building nodes: children precede parents, roots name decoded nodes.
  std::istringstream whole(os.str());
  const DumpRecords records = readDump(whole);
  EXPECT_EQ(records.varNames.size(), info.varCount);
  EXPECT_EQ(records.level2var, (std::vector<unsigned>{0, 1, 2, 3}));
  ASSERT_EQ(records.nodes.size(), info.nodeCount);
  ASSERT_EQ(records.roots.size(), info.rootCount);
  for (std::size_t i = 0; i < records.nodes.size(); ++i) {
    for (const std::uint32_t ref : {records.nodes[i].hi, records.nodes[i].lo}) {
      EXPECT_TRUE(ref <= 1 || (ref >> 1) - 1 < i) << "node " << i;
    }
  }
  for (const std::uint32_t ref : records.roots) {
    EXPECT_TRUE(ref <= 1 || (ref >> 1) - 1 < records.nodes.size());
  }
}

// ---------------------------------------------------------------------------
// Fuzz-style corpus: truncation and corruption are typed errors

namespace fuzz {

/// Loading `bytes` must throw SerializeError -- the typed class, with a
/// plausible byte offset surfaced both structurally and in the message.
void expectTypedFailure(const std::string& bytes, std::size_t cut) {
  BddManager mgr;
  std::istringstream is(bytes.substr(0, cut));
  try {
    (void)loadBdds(is, mgr);
    FAIL() << "prefix of " << cut << "/" << bytes.size()
           << " bytes loaded successfully";
  } catch (const SerializeError& err) {
    EXPECT_LE(err.byteOffset(), bytes.size()) << "cut " << cut;
    EXPECT_NE(std::string(err.what()).find("(at byte "), std::string::npos)
        << "cut " << cut;
  }
  // Any other exception type escapes and fails the test: truncation must
  // never surface as bad_alloc, length_error, or a crash.
}

}  // namespace fuzz

TEST(SerializeFuzz, EveryBinaryTruncationIsATypedError) {
  // The v3 trailing checksum makes every strict prefix invalid: whatever
  // field the cut lands in, some later read hits EOF.
  const std::string dump = corpusDump();
  ASSERT_GT(dump.size(), 100u);
  for (std::size_t cut = 0; cut < dump.size(); ++cut) {
    fuzz::expectTypedFailure(dump, cut);
  }
}

TEST(SerializeFuzz, EveryBinaryByteFlipIsATypedError) {
  // Single-byte corruption anywhere in a v3 dump is caught: structural
  // checks (magic, endian tag, ranges, reserved bits) or, failing those,
  // the trailing FNV-1a checksum.
  const std::string dump = corpusDump();
  for (std::size_t i = 0; i < dump.size(); ++i) {
    std::string bad = dump;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    BddManager mgr;
    std::istringstream is(bad);
    try {
      (void)loadBdds(is, mgr);
      FAIL() << "flip at byte " << i << " loaded successfully";
    } catch (const SerializeError&) {
      // typed, as required
    }
  }
}

TEST(SerializeFuzz, HeaderlessCountLinesAreNotASilentEmptyLoad) {
  // Regression: counts whose number is missing used to extract as zero on
  // some paths, turning a mangled dump into a successful load of nothing.
  // A dump that stops at or inside its counts is a typed truncation.
  const std::string dump = corpusDump();
  expectRejected("", "truncated input reading magic line");
  expectRejected(dump.substr(0, kMagicSize), "truncated input reading endian");
  expectRejected(dump.substr(0, kMagicSize + 8), "reading var count");
  expectRejected(dump.substr(0, kHeaderSize - 3), "reading root count");
  // Counts present, records missing.
  expectRejected(dump.substr(0, kHeaderSize), "reading name length");
  expectRejected("icbdd-bdd-v2\n", "bad magic 'icbdd-bdd-v2'");
}

TEST(SerializeFuzz, ImplausibleBinaryCountsFailFastNotBigAlloc) {
  // A dump declaring 2^60 nodes (or a 4 GiB variable name) must fail as a
  // typed truncation/corruption error when the bytes run out, not attempt
  // the allocation up front.
  const std::string dump = corpusDump();
  const std::size_t bodyStart = dump.find('\n') + 1;
  // node count: u64 at body offset 8 (endian tag, flags) + 8 (var count).
  std::string bad = dump;
  for (int i = 0; i < 8; ++i) {
    bad[bodyStart + 16 + i] = static_cast<char>(0xff);
  }
  BddManager mgr;
  std::istringstream is(bad);
  EXPECT_THROW((void)loadBdds(is, mgr), SerializeError);
}

TEST(SerializeFuzz, SerializeErrorCarriesOffsetAndDerivesFromUsageError) {
  const std::string dump = corpusDump();
  BddManager mgr;
  std::istringstream is(dump.substr(0, dump.size() / 2));
  bool threw = false;
  try {
    (void)loadBdds(is, mgr);
  } catch (const BddUsageError& err) {  // the base class still catches it
    threw = true;
    const auto* typed = dynamic_cast<const SerializeError*>(&err);
    ASSERT_NE(typed, nullptr);
    EXPECT_GT(typed->byteOffset(), 0u);
    EXPECT_LE(typed->byteOffset(), dump.size());
  }
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace icb
