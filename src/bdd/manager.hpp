// BddManager: shared-node BDD package with complement edges.
//
// Design follows the classic Brace-Rudell-Bryant efficient implementation
// (the same family as David Long's CMU package used by the paper):
//   * one node arena, hash-consed through a unique table,
//   * complement edges restricted to else-arcs and external edges
//     (the then-arc of a stored node is never complemented), giving a
//     canonical form with constant-time negation,
//   * a lossy computed cache for the recursive operators,
//   * mark-and-sweep garbage collection rooted at the RAII `Bdd` handles.
//
// Two API levels coexist:
//   * the handle level (`Bdd`, see bdd.hpp) -- safe, reference counted,
//     what the rest of the library uses;
//   * the edge level (`Edge` methods below) -- used internally by the
//     recursive algorithms.  Edge-level results are only safe until the next
//     garbage collection, which can run at any handle-level entry point.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bdd/computed_cache.hpp"
#include "bdd/edge.hpp"
#include "bdd/node_store.hpp"
#include "bdd/options.hpp"
#include "obs/histogram.hpp"

namespace icb {

class Bdd;
class Rng;

/// Operation kinds of the computed cache, public so the per-operation
/// statistics below (and the obs/ metrics layer naming them) can be indexed
/// outside the manager.  kInvalid tags empty cache slots and records no
/// statistics.
enum class BddOp : std::uint32_t {
  kInvalid = 0,
  kIte,
  kAnd,
  kXor,
  kExists,
  kAndExists,
  kRestrict,
  kConstrain,
};

inline constexpr std::size_t kBddOpCount = 8;  ///< including kInvalid

/// Short lowercase name ("ite", "and", ...) for counter naming and reports.
[[nodiscard]] const char* bddOpName(BddOp op);

/// Computed-cache traffic for one operation kind.
struct BddOpCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;

  [[nodiscard]] std::uint64_t misses() const { return lookups - hits; }
};

/// Aggregate operation counters, exposed for the benchmark harness and the
/// obs/ metrics layer.  Engines call BddManager::resetStats() on entry so a
/// manager reused across runs (or back-to-back bench cells) reports each
/// run's workload in isolation.
struct BddStats {
  std::uint64_t nodesCreated = 0;   ///< total mk() allocations ever
  std::uint64_t peakNodes = 0;      ///< max arena occupancy (live + dead)
  std::uint64_t gcRuns = 0;         ///< number of collections
  std::uint64_t gcReclaimed = 0;    ///< nodes reclaimed across all GCs
  std::uint64_t uniqueLookups = 0;  ///< unique-table probes
  std::uint64_t uniqueChainSteps = 0;  ///< hash-chain nodes visited probing
  std::uint64_t reorderSwaps = 0;   ///< adjacent-level swaps performed
  std::uint64_t reorderRuns = 0;    ///< completed sift() passes
  std::uint64_t reorderSavedNodes = 0;  ///< live nodes shed across all sifts
  std::uint64_t reorderInterrupted = 0;  ///< sifts cut short by a limit
  std::uint64_t restrictCalls = 0;  ///< top-level restrictE invocations
  std::uint64_t constrainCalls = 0; ///< top-level constrainE invocations
  std::uint64_t multiRestrictCalls = 0;  ///< top-level restrictMultiE calls
  std::uint64_t cacheResizes = 0;   ///< adaptive computed-cache doublings
  std::uint64_t refUnderflows = 0;  ///< deref() calls on a zero count (a
                                    ///< double release swallowed because the
                                    ///< check level was below cheap)

  /// Computed-cache hit/miss per operation kind, indexed by BddOp.
  std::array<BddOpCacheStats, kBddOpCount> opCache{};

  /// Wall-clock pause distributions, microseconds.
  obs::Histogram gcPauseUs;       ///< full mark-and-sweep pauses
  obs::Histogram reorderPauseUs;  ///< complete sift() passes (incl. capped)

  [[nodiscard]] const BddOpCacheStats& cacheFor(BddOp op) const {
    return opCache[static_cast<std::size_t>(op)];
  }

  /// Aggregate probes across every operation kind.
  [[nodiscard]] std::uint64_t cacheLookups() const {
    std::uint64_t total = 0;
    for (const BddOpCacheStats& s : opCache) total += s.lookups;
    return total;
  }

  /// Aggregate hits across every operation kind.
  [[nodiscard]] std::uint64_t cacheHits() const {
    std::uint64_t total = 0;
    for (const BddOpCacheStats& s : opCache) total += s.hits;
    return total;
  }
};

// A manager is confined to one thread: the scheduler and the service give
// each cell a private manager.  Cross-thread interaction goes through
// ResourceLimits::cancelFlag (an atomic the owner thread installs), never
// through direct member access.
class BddManager {
 public:
  explicit BddManager(const BddOptions& options = {});

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // ---- variables ---------------------------------------------------------

  /// Creates a new variable at the bottom of the current order.
  /// Returns its index.  Variable indices are dense, starting at 0.
  unsigned newVar(const std::string& name = {});

  /// Number of variables created so far.
  [[nodiscard]] unsigned varCount() const {
    return static_cast<unsigned>(varEdges_.size());
  }

  /// Position of variable `var` in the order (0 = top).
  [[nodiscard]] unsigned varLevel(unsigned var) const {
    return var2level_[var];
  }

  /// Registers the given variables as one sifting group: sift() moves them
  /// as a unit, preserving their relative order.  Intended for the paper's
  /// (cur, nxt) state-bit pairs, whose interleaving must survive reordering.
  /// Grouping is a sifting hint only -- manual swapAdjacentLevels() may still
  /// split a group, in which case its level-contiguous fragments sift
  /// separately until they happen to reunite.
  void groupVars(std::span<const unsigned> vars);

  /// Sifting group of `var`, or kNoGroup when ungrouped.
  [[nodiscard]] unsigned varGroupOf(unsigned var) const {
    return varGroup_[var];
  }

  static constexpr unsigned kNoGroup = std::numeric_limits<unsigned>::max();

  /// Variable sitting at order position `level`.
  [[nodiscard]] unsigned varAtLevel(unsigned level) const {
    return level2var_[level];
  }

  [[nodiscard]] const std::string& varName(unsigned var) const {
    return varNames_[var];
  }

  // ---- handle-level constants and projections ----------------------------

  Bdd one();
  Bdd zero();
  Bdd var(unsigned v);   ///< the projection function of variable v
  Bdd nvar(unsigned v);  ///< its negation

  // ---- resource limits ----------------------------------------------------

  void setLimits(const ResourceLimits& limits) { limits_ = limits; }
  [[nodiscard]] const ResourceLimits& limits() const { return limits_; }
  void clearLimits() { limits_ = ResourceLimits{}; }

  // ---- memory / stats ------------------------------------------------------

  /// Nodes currently allocated in the arena (live + dead-awaiting-GC).
  [[nodiscard]] std::uint64_t allocatedNodes() const {
    return store_.allocated();
  }

  /// Estimated bytes of true footprint for an arena of `n` nodes.  Used to
  /// report paper-style "Mem" columns in an implementation-independent way
  /// (the paper itself warns memory numbers depend on the package).  The
  /// packed node folds the unique-table chain link into its spare bits, so
  /// the arena term is exactly 16 bytes per node; on top of that rides the
  /// sparse refcount side table (entries + bucket array).
  /// docs/node_layout.md has the accounting.
  [[nodiscard]] std::uint64_t bytesForNodes(std::uint64_t n) const;

  [[nodiscard]] const BddStats& stats() const { return stats_; }
  void resetPeak() { stats_.peakNodes = allocatedNodes(); }

  /// Current computed-cache capacity in entries (a power of two; grows
  /// adaptively with arena occupancy up to BddOptions::cacheMaxBitsLog2).
  [[nodiscard]] std::uint64_t computedCacheEntries() const {
    return cache_.size();
  }

  /// Zeroes every counter and re-bases the peak at the current occupancy.
  /// Engines call this on entry so a reused manager (doctor runs, bench
  /// cells sharing a manager) never bleeds one run's counters into the next.
  void resetStats() {
    stats_ = BddStats{};
    stats_.peakNodes = allocatedNodes();
  }

  /// Runs a full mark-and-sweep collection now.  Returns nodes reclaimed.
  std::uint64_t gc();

  /// Runs GC if the arena has outgrown the adaptive threshold.  Called
  /// automatically at handle-level entry points; harmless to call manually.
  /// With BddOptions::autoReorder on, this is also the growth-triggered
  /// reordering safe point: right after a collection the live count is
  /// exact, and no recursive operator is on the stack.
  void autoGc();

  /// Explicit auto-reorder safe point for engine iteration boundaries.
  /// No-op (and side-effect free) unless BddOptions::autoReorder is set and
  /// the arena has outgrown the trigger; returns true when a sift ran.
  /// Never call this with edge-level results held across it -- like autoGc,
  /// it may collect unreferenced nodes (the sift itself keeps every edge
  /// denoting the same function, so handles survive).
  bool autoReorderIfNeeded();

  /// Checks the installed resource limits now (mk() polls them itself, but
  /// long non-allocating walks such as node counting call this explicitly).
  void pollLimits() { checkResourceLimits(); }

  /// Distinct externally referenced nodes (refcount side-table occupancy;
  /// the GC root set).  Doctor --dump-store reports it next to the arena.
  [[nodiscard]] std::size_t rootSetSize() const {
    return store_.refs().size();
  }

  // ---- edge-level structural accessors ------------------------------------

  [[nodiscard]] unsigned nodeVar(Edge e) const {
    return store_.varOf(edgeIndex(e));
  }

  /// Order position of an edge's top node; constants sit below everything.
  [[nodiscard]] unsigned edgeLevel(Edge e) const {
    return edgeIsConstant(e) ? kTermLevel
                             : var2level_[store_.varOf(edgeIndex(e))];
  }

  /// Then-cofactor of the *function* denoted by `e` at its own top variable
  /// (complement bit propagated into the child).
  [[nodiscard]] Edge edgeThen(Edge e) const {
    return store_.hiOf(edgeIndex(e)) ^ (e & 1u);
  }

  [[nodiscard]] Edge edgeElse(Edge e) const {
    return store_.loOf(edgeIndex(e)) ^ (e & 1u);
  }

  /// Edge of the projection function of variable v (edge-level `var(v)`).
  [[nodiscard]] Edge varEdge(unsigned v) const {
    if (v >= varEdges_.size()) throw BddUsageError("var index out of range");
    return varEdges_[v];
  }

  static constexpr unsigned kTermLevel =
      std::numeric_limits<unsigned>::max();

  // ---- edge-level operations ----------------------------------------------
  // These are the recursive workers.  They never trigger GC.

  /// Canonicalizing node constructor ("find or add").
  Edge mk(unsigned var, Edge hi, Edge lo);

  Edge iteE(Edge f, Edge g, Edge h);
  Edge andE(Edge f, Edge g);
  Edge orE(Edge f, Edge g) { return edgeNot(andE(edgeNot(f), edgeNot(g))); }
  Edge xorE(Edge f, Edge g);

  /// Existential quantification of the positive cube `cube` from f.
  Edge existsE(Edge f, Edge cube);
  Edge forallE(Edge f, Edge cube) {
    return edgeNot(existsE(edgeNot(f), cube));
  }
  /// Relational product: exists(cube, f & g) without building f & g.
  Edge andExistsE(Edge f, Edge g, Edge cube);

  /// Coudert-Berthet-Madre Restrict (sibling-substitution simplification):
  /// returns some f' with f' & c == f & c, usually smaller than f.
  Edge restrictE(Edge f, Edge c);

  /// Generalized cofactor (Constrain): f' with f' & c == f & c and the
  /// image property; can blow up, unlike Restrict it never skips levels.
  Edge constrainE(Edge f, Edge c);

  /// Simultaneous multi-care-set Restrict (paper SS V future work): returns
  /// f' with f' & (c1 & ... & ck) == f & (c1 & ... & ck) WITHOUT building
  /// the conjunction of the care BDDs.  Strictly sharper than iterating
  /// restrictE when the care sets overlap destructively (the paper's
  /// "simplify by c1 blows up, then by c2 shrinks below f" scenario).
  Edge restrictMultiE(Edge f, std::span<const Edge> cares);

  /// Cofactor of f with respect to literal (var = value).
  Edge cofactorE(Edge f, unsigned var, bool value);

  /// Simultaneous composition: replaces every variable v by map[v].
  /// map.size() may be less than varCount(); missing vars stay themselves.
  Edge composeVecE(Edge f, std::span<const Edge> map);

  /// Variable-to-variable renaming (special case of composeVecE).
  /// perm[v] = target variable for v; missing entries stay.
  Edge permuteE(Edge f, std::span<const unsigned> perm);

  /// Builds the positive cube of the given variables.
  Edge cubeE(std::span<const unsigned> vars);

  /// Copies a function from another manager into this one (variables are
  /// matched by index; missing ones are created).  The managers may use
  /// different orders -- the rebuild goes through ITE.
  Edge transferFromE(const BddManager& source, Edge e);

  // ---- edge-level analysis -------------------------------------------------

  /// Number of distinct nodes reachable from e, terminal included
  /// (an 8-bit "x <= 128" comparator measures 9, as in the paper).
  [[nodiscard]] std::uint64_t sizeE(Edge e) const;

  /// DAG size of several roots together, counting shared nodes once.
  /// This is the paper's BDDSize(X_i, X_j) denominator in Figure 1.
  [[nodiscard]] std::uint64_t sharedSizeE(std::span<const Edge> roots) const;

  /// Number of satisfying assignments over `nvars` variables.
  [[nodiscard]] double satCountE(Edge e, unsigned nvars) const;

  /// Sorted list of variables the function depends on.
  [[nodiscard]] std::vector<unsigned> supportE(Edge e) const;

  /// Evaluates the function under a full assignment (indexed by variable).
  [[nodiscard]] bool evalE(Edge e, std::span<const char> values) const;

  /// Picks one satisfying assignment; values of `vars` not constrained by
  /// the function are drawn from `rng`.  Precondition: e != FALSE.
  void pickMintermE(Edge e, std::span<const unsigned> vars, Rng& rng,
                    std::vector<char>& values) const;

  // ---- bounded operations (paper SS V "future work": abort an AND whose
  //      result exceeds a known usefulness bound) -----------------------------

  /// Computes f & g but gives up once the operation has created more than
  /// `nodeBudget` fresh nodes.  Returns true and stores the result on
  /// success; returns false (result untouched) when the budget is exceeded.
  bool andBoundedE(Edge f, Edge g, std::uint64_t nodeBudget, Edge* result);

  // ---- reordering -----------------------------------------------------------

  /// Swaps the variables at order positions `level` and `level+1` in place.
  /// Checks the installed ResourceLimits once per call, at the consistent
  /// state after the swap -- an interrupted reorder never leaves a
  /// half-rewritten level behind.
  void swapAdjacentLevels(unsigned level);

  /// Rudell-style sifting over all variables, moving each registered
  /// variable group (see groupVars) as a block.  Returns the live-node
  /// delta (negative = shrink).  Honors ResourceLimits at swap granularity;
  /// on interruption the ResourceLimitError propagates with the manager
  /// audit-clean.  (Extension: the paper keeps a fixed order.)
  std::int64_t sift(std::uint64_t maxGrowth = 0);

  // ---- debug ---------------------------------------------------------------

  /// Structural sanity check (canonicity, ordering, table consistency).
  /// Delegates to check/StructuralChecker at full effort and throws
  /// BddUsageError on the first violation.  Intended for tests; the richer
  /// CheckReport interface lives on StructuralChecker itself.
  void checkInvariants() const;

  /// Writes a Graphviz dot rendering of the given roots.
  void dumpDot(std::ostream& os, std::span<const Edge> roots,
               std::span<const std::string> rootNames = {}) const;

  /// Count of live (externally referenced, directly or transitively) nodes.
  /// Runs a full mark pass; intended for tests and stats, not hot paths.
  [[nodiscard]] std::uint64_t liveNodes() const;

 private:
  friend class Bdd;
  // The invariant-checker subsystem (src/check) reads -- and, for the cache
  // auditor's evict-and-recompute probe, writes -- private state directly.
  friend class StructuralChecker;
  friend class CacheAuditor;
  // Test-only corruption hook (src/check/test_hooks.hpp).
  friend class NodeSurgeon;

  // The node representation lives in NodeStore (bdd/node_store.hpp): packed
  // 16-byte nodes, a sparse refcount side table, and the unique table /
  // free list.  The historical sentinels are re-exported so the checker and
  // the reorder machinery keep reading naturally.
  static constexpr unsigned kFreeVar = NodeStore::kFreeVar;
  static constexpr std::uint32_t kNil = NodeStore::kNil;
  static constexpr std::uint32_t kMaxRef = NodeStore::kMaxRef;

  // Operation tags for the computed cache; the public BddOp so per-op
  // statistics and the cache auditor's re-execution switch share one enum.
  using Op = BddOp;

  // The decoded cache-entry shape (op as a raw integer) the cache class,
  // the auditor, and the surgeon hooks traffic in.
  using CacheEntry = ComputedCache::Entry;

  // reference counting (used by Bdd handles only)
  void ref(Edge e) { store_.ref(edgeIndex(e)); }
  /// Dropping a count that is already zero means someone released a handle
  /// twice: counted in stats_.refUnderflows always, and escalated to a
  /// CheckFailure(kRefUnderflow) under ICBDD_CHECK_LEVEL >= cheap.  Out of
  /// line because the escalation needs check/check.hpp.
  void deref(Edge e);

  // computed cache
  [[nodiscard]] std::size_t cacheSlot(Op op, Edge f, Edge g, Edge h) const;
  bool cacheLookup(Op op, Edge f, Edge g, Edge h, Edge* out);
  void cacheInsert(Op op, Edge f, Edge g, Edge h, Edge result);
  /// Doubles the computed cache (rehashing live entries) while the arena has
  /// outgrown it, up to the BddOptions::cacheMaxBitsLog2 ceiling.
  void maybeGrowComputedCache();

  void checkResourceLimits();
  void markRecursive(std::uint32_t index, std::vector<std::uint8_t>& mark) const;

  // reordering internals (reorder.cpp)
  //
  // ReorderBook is the sift-scoped incremental bookkeeping that replaces the
  // historical per-swap liveNodes() full mark pass: per-node in-degree from
  // live nodes, a live flag, per-variable live populations, and per-variable
  // candidate lists so a swap touches only the nodes of its own level.
  struct ReorderBook;
  void initReorderBook(ReorderBook& book) const;
  void bookAcquire(ReorderBook& book, Edge e);
  void bookRelease(ReorderBook& book, Edge e);
  Edge mkBook(unsigned var, Edge hi, Edge lo, ReorderBook* book);
  /// The one adjacent-level swap implementation: with a book it iterates the
  /// level's candidate list and maintains the live count incrementally; the
  /// public swapAdjacentLevels() passes nullptr and scans the arena.
  void swapLevelsInternal(unsigned level, ReorderBook* book);
  /// Store unlink that escalates a missing chain entry to a CheckFailure
  /// (the reorder path must never lose a node silently).
  void unlinkFromBucket(std::uint32_t index);
  /// Throws CheckFailure when the book's live count disagrees with a full
  /// liveNodes() mark pass (ICBDD_CHECK_LEVEL=full only).
  void auditReorderBook(const ReorderBook& book) const;
  void maybeAutoReorderPostGc();

  /// ICBDD_CHECK(kCheap) helper for operator entry/exit points: throws
  /// CheckFailure(kInvalidEdge) when `e` points outside the arena or at a
  /// free-listed node.
  void validateEdge(Edge e) const;

  // recursive workers
  Edge iteRec(Edge f, Edge g, Edge h);
  Edge andRec(Edge f, Edge g);
  Edge xorRec(Edge f, Edge g);
  Edge existsRec(Edge f, Edge cube);
  Edge andExistsRec(Edge f, Edge g, Edge cube);
  Edge restrictRec(Edge f, Edge c);
  Edge constrainRec(Edge f, Edge c);

  // data -- node arena + unique table + free list (bdd/node_store.hpp),
  // then the computed cache.
  NodeStore store_;
  ComputedCache cache_;

  std::vector<Edge> varEdges_;  // projection edge per variable (kept live)
  std::vector<unsigned> var2level_;
  std::vector<unsigned> level2var_;
  std::vector<std::string> varNames_;

  BddOptions options_;
  ResourceLimits limits_;
  BddStats stats_;
  std::uint64_t gcThreshold_ = 0;
  std::uint32_t limitCheckCountdown_ = 0;

  // reordering state
  std::vector<unsigned> varGroup_;      // sifting group per var; kNoGroup
  unsigned nextGroupId_ = 0;
  std::uint64_t reorderBaseline_ = 0;   // live nodes after the last sift
  bool inReorder_ = false;              // reentrancy guard for safe points
  bool suppressRehash_ = false;         // defer table growth during a swap
};

}  // namespace icb
