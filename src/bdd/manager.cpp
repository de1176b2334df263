#include "bdd/manager.hpp"

#include <algorithm>

#include "bdd/bdd.hpp"
#include "check/check.hpp"
#include "check/structural_checker.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace icb {

const char* bddOpName(BddOp op) {
  switch (op) {
    case BddOp::kInvalid: return "invalid";
    case BddOp::kIte: return "ite";
    case BddOp::kAnd: return "and";
    case BddOp::kXor: return "xor";
    case BddOp::kExists: return "exists";
    case BddOp::kAndExists: return "and_exists";
    case BddOp::kRestrict: return "restrict";
    case BddOp::kConstrain: return "constrain";
  }
  return "?";
}

BddManager::BddManager(const BddOptions& options)
    : store_(options.initialCapacity),
      cache_(std::size_t{1} << options.cacheBitsLog2),
      options_(options) {
  gcThreshold_ = options_.gcThreshold;
  stats_.peakNodes = 1;
}

// ---------------------------------------------------------------------------
// variables

unsigned BddManager::newVar(const std::string& name) {
  const auto v = static_cast<unsigned>(varEdges_.size());
  if (v > NodeStore::kMaxVar) {
    throw BddUsageError("variable index space exhausted (packed nodes carry "
                        "20-bit variable indices)");
  }
  var2level_.push_back(v);
  level2var_.push_back(v);
  varGroup_.push_back(kNoGroup);
  varNames_.push_back(name.empty() ? "v" + std::to_string(v) : name);
  const Edge e = mk(v, kTrueEdge, kFalseEdge);
  ref(e);  // projection functions stay alive for the manager's lifetime
  varEdges_.push_back(e);
  ICBDD_CHECK(kCheap, StructuralChecker(*this).throwIfBroken(CheckLevel::kCheap));
  return v;
}

Bdd BddManager::one() { return Bdd(this, kTrueEdge); }
Bdd BddManager::zero() { return Bdd(this, kFalseEdge); }

Bdd BddManager::var(unsigned v) {
  if (v >= varEdges_.size()) throw BddUsageError("var index out of range");
  return Bdd(this, varEdges_[v]);
}

Bdd BddManager::nvar(unsigned v) {
  if (v >= varEdges_.size()) throw BddUsageError("var index out of range");
  return Bdd(this, edgeNot(varEdges_[v]));
}

// ---------------------------------------------------------------------------
// reference counting

void BddManager::deref(Edge e) {
  if (store_.deref(edgeIndex(e))) {
    // A release on a zero count: some handle was dropped twice.  Always
    // counted (the obs layer exports bdd.ref.underflow); fatal when the
    // per-operation checks are on.
    ++stats_.refUnderflows;
    ICBDD_CHECK(kCheap,
                throw CheckFailure(
                    ViolationKind::kRefUnderflow,
                    "deref of edge " + std::to_string(e) +
                        " whose external reference count is already zero"));
  }
}

void BddManager::checkResourceLimits() {
  if (limits_.maxNodes != 0 && allocatedNodes() > limits_.maxNodes) {
    throw ResourceLimitError(ResourceKind::kNodes);
  }
  // relaxed: cancellation is advisory -- the poll needs timeliness, not
  // ordering with the cancelling thread's other writes.
  if (limits_.cancelFlag != nullptr &&
      limits_.cancelFlag->load(std::memory_order_relaxed)) {
    throw ResourceLimitError(ResourceKind::kCancelled);
  }
  // The clock is comparatively expensive; sample it.
  if (limits_.deadline.isSet() && limitCheckCountdown_-- == 0) {
    limitCheckCountdown_ = 8192;
    if (limits_.deadline.expired()) {
      throw ResourceLimitError(ResourceKind::kTime);
    }
  }
}

std::uint64_t BddManager::bytesForNodes(std::uint64_t n) const {
  const std::uint64_t arena = n * sizeof(PackedNode);
  // The sparse refcount side table: a hash node per externally referenced
  // index (~2x the 8-byte payload with the chain pointer and allocator
  // rounding) plus the bucket-pointer array.
  constexpr std::uint64_t kRefEntryBytes = 32;
  const auto& refs = store_.refs();
  return arena + refs.size() * kRefEntryBytes +
         refs.bucket_count() * sizeof(void*);
}

Edge BddManager::mk(unsigned var, Edge hi, Edge lo) {
  if (hi == lo) return hi;
  // Canonical form: the then-arc is never complemented.
  if (edgeIsComplemented(hi)) {
    return edgeNot(mk(var, edgeNot(hi), edgeNot(lo)));
  }

  ++stats_.uniqueLookups;
  const std::uint32_t hit = store_.find(var, hi, lo, &stats_.uniqueChainSteps);
  if (hit != kNil) return makeEdge(hit, false);

  checkResourceLimits();

  // allocate() enforces the 27-bit node index space itself, throwing the
  // typed kNodeIndexSpace error *before* touching any state -- the guard
  // that used to live here (and before that, nowhere: indices silently
  // wrapped through makeEdge past 2^31 nodes).  The variable's subtable
  // grows itself inside allocate().
  const bool grew = store_.wouldGrow();
  const std::uint32_t index = store_.allocate(var, hi, lo);
  // The computed cache tracks the arena: a cache frozen at its boot size
  // serves a multi-million-node traversal at direct-mapped conflict rates
  // while the unique table scales freely beside it.
  if (grew) maybeGrowComputedCache();

  ++stats_.nodesCreated;
  stats_.peakNodes = std::max<std::uint64_t>(stats_.peakNodes, allocatedNodes());
  return makeEdge(index, false);
}

// ---------------------------------------------------------------------------
// computed cache

void BddManager::maybeGrowComputedCache() {
  const std::size_t ceiling = std::size_t{1}
                              << std::max(options_.cacheMaxBitsLog2,
                                          options_.cacheBitsLog2);
  // Runs only when mk() appends past an empty free list, so allocated is the
  // extent.  It reaches twice the live count between collections (autoGc):
  // two entries per node would be four per live node, the bulk of peak RSS;
  // one per node slows network-7 Bkwd's deep traversals.
  while (static_cast<double>(allocatedNodes()) * kCacheEntriesPerNode >
             static_cast<double>(cache_.size()) &&
         cache_.size() < ceiling) {
    cache_.grow();
    ++stats_.cacheResizes;
    if (obs::traceEnabled()) {
      obs::emitGlobalEvent("cache_resize", *this,
                           obs::JsonObject()
                               .put("entries", cache_.size())
                               .put("allocated", allocatedNodes()));
    }
  }
}

// ---------------------------------------------------------------------------
// garbage collection

void BddManager::markRecursive(std::uint32_t index,
                               std::vector<std::uint8_t>& mark) const {
  // Iterative DFS to avoid stack overflow on deep BDDs.
  std::vector<std::uint32_t> stack{index};
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    if (mark[i] != 0) continue;
    mark[i] = 1;
    if (i == 0) continue;
    stack.push_back(edgeIndex(store_.hiOf(i)));
    stack.push_back(edgeIndex(store_.loOf(i)));
  }
}

std::uint64_t BddManager::gc() {
  const Stopwatch gcWatch;
  const std::vector<std::uint8_t> mark = markFromRoots();

  std::uint64_t reclaimed = 0;
  store_.resetFreeList();
  for (std::uint32_t i = 1; i < store_.size(); ++i) {
    if (mark[i] != 0) continue;
    if (!store_.isFree(i)) ++reclaimed;
    store_.pushFree(i);
  }

  store_.rebuildSubtables();
  // Sweep the computed cache selectively: an entry stays valid as long as
  // every node it references survived, because the sweep frees slots in
  // place (survivors keep their index, and an index keeps denoting the same
  // function -- see reorder.cpp).  Dropping the whole table here instead
  // forces every traversal to re-derive results about still-live subgraphs
  // after each collection, which is what used to cap the cache hit rate on
  // the deep table-1 runs no matter how large the cache grew.
  std::uint64_t kept = 0;
  for (std::size_t slot = 0; slot < cache_.size(); ++slot) {
    const CacheEntry e = cache_.entryAt(slot);
    if (e.op == static_cast<std::uint32_t>(Op::kInvalid)) continue;
    if (mark[edgeIndex(e.f)] != 0 && mark[edgeIndex(e.g)] != 0 &&
        mark[edgeIndex(e.h)] != 0 && mark[edgeIndex(e.result)] != 0) {
      ++kept;
    } else {
      cache_.clearAt(slot);
    }
  }

  ++stats_.gcRuns;
  stats_.gcReclaimed += reclaimed;
  const double gcUs = gcWatch.elapsedSeconds() * 1e6;
  stats_.gcPauseUs.record(gcUs <= 0.0 ? 0 : static_cast<std::uint64_t>(gcUs));
  if (obs::traceEnabled()) {
    obs::emitGlobalEvent("gc", *this,
                         obs::JsonObject()
                             .put("reclaimed", reclaimed)
                             .put("allocated", allocatedNodes())
                             .put("cache_kept", kept)
                             .put("wall_s", gcWatch.elapsedSeconds()));
  }
  // GC is the phase boundary where every structural invariant must hold:
  // the sweep rebuilt the unique subtables and the free list from scratch.
  ICBDD_CHECK(kFull, auditArenaCreditingTime(*this));
  return reclaimed;
}

void BddManager::autoGc() {
  if (allocatedNodes() < gcThreshold_) return;
  gc();
  // Collect next when the allocation has doubled past what survived.  The
  // extent never shrinks, so a trigger on it would collect on every call.
  gcThreshold_ = std::max<std::uint64_t>(gcThreshold_, 2 * allocatedNodes());
  // The collection just failed to get the live count back under the growth
  // trigger?  This is the safe point where sifting is allowed to fire: only
  // handle-level entries reach autoGc(), never a recursive worker.
  maybeAutoReorderPostGc();
}

std::vector<std::uint8_t> BddManager::markFromRoots() const {
  std::vector<std::uint8_t> mark(store_.size(), 0);
  mark[0] = 1;
  // Roots are exactly the side table's entries: every externally referenced
  // node, without an O(arena) scan for nonzero counts.  Sorted by node
  // index before marking: the unordered_map iterates in hash order, which
  // varies with the table's resize history and across standard libraries --
  // sorting pins the whole collection to a deterministic visit order
  // instead of leaning on mark-set commutativity.
  std::vector<std::uint32_t> roots;
  roots.reserve(store_.refs().size());
  for (const auto& [i, r] : store_.refs()) {
    if (i != 0 && r > 0 && !store_.isFree(i)) roots.push_back(i);
  }
  std::sort(roots.begin(), roots.end());
  for (const std::uint32_t i : roots) {
    markRecursive(i, mark);
  }
  return mark;
}

std::uint64_t BddManager::liveNodes() const {
  const std::vector<std::uint8_t> mark = markFromRoots();
  return static_cast<std::uint64_t>(std::count(mark.begin(), mark.end(), 1));
}

// ---------------------------------------------------------------------------
// invariants (test support)

void BddManager::checkInvariants() const {
  const CheckReport report = StructuralChecker(*this).run(CheckLevel::kFull);
  if (!report.ok()) {
    throw BddUsageError(report.summary());
  }
}

void BddManager::validateEdge(Edge e) const {
  if (edgeIndex(e) >= store_.size()) {
    throw CheckFailure(ViolationKind::kInvalidEdge,
                       "edge " + std::to_string(e) + " points outside the arena");
  }
  if (!edgeIsConstant(e) && store_.isFree(edgeIndex(e))) {
    throw CheckFailure(ViolationKind::kInvalidEdge,
                       "edge " + std::to_string(e) + " points at a freed node");
  }
}

// ---------------------------------------------------------------------------
// free-function helpers on handles

Bdd transferTo(BddManager& target, const Bdd& f) {
  if (f.manager() == &target) return f;
  target.autoGc();
  return Bdd(&target, target.transferFromE(*f.manager(), f.edge()));
}

std::uint64_t sharedSize(std::span<const Bdd> fs) {
  if (fs.empty()) return 0;
  BddManager* mgr = fs.front().manager();
  std::vector<Edge> roots;
  roots.reserve(fs.size());
  for (const Bdd& f : fs) {
    if (f.manager() != mgr) {
      throw BddUsageError("sharedSize across managers");
    }
    roots.push_back(f.edge());
  }
  return mgr->sharedSizeE(roots);
}

}  // namespace icb
