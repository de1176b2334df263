// Dynamic variable reordering: in-place adjacent-level swap, grouped
// Rudell-style sifting, and the growth-triggered automatic reordering policy.
// The paper keeps a fixed (interleaved) order, so reordering is an extension
// here -- docs/reordering.md covers the trigger policy and the safe points.
//
// The in-place swap follows the classic recipe for packages with complement
// edges and the "then-arc never complemented" rule:
//   * only level-l nodes with a level-(l+1) child need rewriting,
//   * each such node (x, f1, f0) becomes
//       (y, mk(x, f1|y, f0|y), mk(x, f1|!y, f0|!y))
//     mutated in place so every parent/handle stays valid (the node keeps
//     denoting the same function),
//   * rewritten triples cannot collide with each other (the rewrite map is
//     injective) nor with pre-existing y-nodes (those cannot reach x-nodes,
//     since x was above y), so canonicity is preserved,
//   * the level's nodes are x's unique subtable, so a swap enumerates them
//     by walking that one subtable; each rewritten node moves from x's
//     subtable to y's -- a swap costs O(level population), not a full
//     table rebuild,
//   * the computed cache stays valid because cached entries denote
//     functions, not shapes.
//
// Sifting maintains a ReorderBook instead of re-running the O(arena)
// liveNodes() mark pass after every swap: per-node in-degree from live
// nodes, a live flag, and per-variable populations.  Because the arena is
// acyclic, reference counting in the book is exact reachability; under
// ICBDD_CHECK_LEVEL=full every swap cross-checks the book against a fresh
// mark pass.
#include <algorithm>
#include <numeric>

#include "bdd/manager.hpp"
#include "check/check.hpp"
#include "check/structural_checker.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace icb {

struct BddManager::ReorderBook {
  std::vector<std::uint32_t> parents;  ///< in-edges from live nodes
  std::vector<std::uint8_t> alive;     ///< reachable from an external root
  std::vector<std::uint64_t> popVar;   ///< live nodes per variable
  std::uint64_t live = 0;  ///< matches liveNodes(): live nodes + terminal
};

void BddManager::groupVars(std::span<const unsigned> vars) {
  for (const unsigned v : vars) {
    if (v >= varGroup_.size()) {
      throw BddUsageError("groupVars: var index out of range");
    }
  }
  const unsigned id = nextGroupId_++;
  for (const unsigned v : vars) varGroup_[v] = id;
}

void BddManager::initReorderBook(ReorderBook& book) const {
  // Precondition: gc() just ran, so every non-free node is reachable from an
  // external root and the one O(arena) pass below prices the whole sift.
  book.parents.assign(store_.size(), 0);
  book.alive.assign(store_.size(), 0);
  book.popVar.assign(varCount(), 0);
  book.live = 1;  // the terminal
  for (std::uint32_t i = 1; i < store_.size(); ++i) {
    if (store_.isFree(i)) continue;
    const unsigned var = store_.varOf(i);
    book.alive[i] = 1;
    ++book.live;
    ++book.popVar[var];
    const Edge hi = store_.hiOf(i);
    const Edge lo = store_.loOf(i);
    if (edgeIndex(hi) != 0) ++book.parents[edgeIndex(hi)];
    if (edgeIndex(lo) != 0) ++book.parents[edgeIndex(lo)];
  }
}

void BddManager::bookAcquire(ReorderBook& book, Edge e) {
  const std::uint32_t idx = edgeIndex(e);
  if (idx == 0) return;
  ++book.parents[idx];
  if (book.alive[idx] != 0) return;
  // Resurrection: mk() handed back a node that had gone dead during this
  // sift.  It re-enters the live set together with its whole cone.
  std::vector<std::uint32_t> stack{idx};
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    if (book.alive[i] != 0) continue;
    book.alive[i] = 1;
    ++book.live;
    ++book.popVar[store_.varOf(i)];
    for (const Edge c : {store_.hiOf(i), store_.loOf(i)}) {
      const std::uint32_t ci = edgeIndex(c);
      if (ci == 0) continue;
      ++book.parents[ci];
      if (book.alive[ci] == 0) stack.push_back(ci);
    }
  }
}

void BddManager::bookRelease(ReorderBook& book, Edge e) {
  if (edgeIndex(e) == 0) return;
  // Every stack entry is a node that just lost one in-edge from a live node.
  std::vector<std::uint32_t> stack{edgeIndex(e)};
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    --book.parents[i];
    if (book.parents[i] != 0 || store_.refOf(i) != 0 || book.alive[i] == 0) {
      continue;
    }
    book.alive[i] = 0;
    --book.live;
    --book.popVar[store_.varOf(i)];
    for (const Edge c : {store_.hiOf(i), store_.loOf(i)}) {
      if (edgeIndex(c) != 0) stack.push_back(edgeIndex(c));
    }
  }
}

Edge BddManager::mkBook(unsigned var, Edge hi, Edge lo, ReorderBook* book) {
  const std::uint64_t createdBefore = stats_.nodesCreated;
  const Edge e = mk(var, hi, lo);
  if (book != nullptr && stats_.nodesCreated != createdBefore) {
    // Fresh node: dead until a live parent acquires it, no in-edges yet.
    const std::uint32_t idx = edgeIndex(e);
    if (idx >= book->alive.size()) {
      book->parents.resize(store_.size(), 0);
      book->alive.resize(store_.size(), 0);
    }
    book->parents[idx] = 0;
    book->alive[idx] = 0;
  }
  return e;
}

void BddManager::auditReorderBook(const ReorderBook& book) const {
  const std::uint64_t marked = liveNodes();
  if (marked != book.live) {
    throw CheckFailure(ViolationKind::kReorderBookMismatch,
                       "incremental live count " + std::to_string(book.live) +
                           " != mark pass " + std::to_string(marked));
  }
}

void BddManager::swapLevelsInternal(unsigned level, ReorderBook* book) {
  const unsigned x = level2var_[level];
  const unsigned y = level2var_[level + 1];

  // The level's nodes are x's subtable; keep those with a y-child (the
  // terminal's var never equals y).  They are rewritten in index order, so
  // the slots mk() hands out below do not depend on the chain layout.
  const auto isY = [&](Edge e) { return store_.varOf(edgeIndex(e)) == y; };
  std::vector<std::uint32_t> rewrite;
  store_.collectSubtable(x, rewrite);
  std::erase_if(rewrite, [&](std::uint32_t i) {
    return !isY(store_.hiOf(i)) && !isY(store_.loOf(i));
  });
  std::sort(rewrite.begin(), rewrite.end());

  // Suspend the resource limits for the rewrite: mk() polling them mid-loop
  // could throw with the level half rewritten.  They are re-checked -- once,
  // with an unsampled clock read -- after the swap reaches a consistent
  // state, which caps a runaway sift at single-swap granularity.
  const ResourceLimits savedLimits = limits_;
  limits_ = ResourceLimits{};

  for (const std::uint32_t i : rewrite) {
    // The reorder path must never lose a node silently.
    if (!store_.unlinkFromBucket(i)) {
      throw CheckFailure(ViolationKind::kUniqueTableMiss,
                         "node " + std::to_string(i) +
                             " missing from its unique subtable");
    }
    const Edge f1 = store_.hiOf(i);  // plain by canonicity
    const Edge f0 = store_.loOf(i);  // possibly complemented

    const bool hiY = isY(f1);
    const bool loY = isY(f0);
    const Edge f11 = hiY ? edgeThen(f1) : f1;
    const Edge f10 = hiY ? edgeElse(f1) : f1;
    const Edge f01 = loY ? edgeThen(f0) : f0;
    const Edge f00 = loY ? edgeElse(f0) : f0;

    const Edge newHi = mkBook(x, f11, f01, book);
    const Edge newLo = mkBook(x, f10, f00, book);
    // newHi is plain: f11 is plain (then-arc of a plain edge), and the
    // f11 == f01 collapse can only yield a plain edge in that case too.
    const bool wasAlive = book != nullptr && book->alive[i] != 0;
    if (wasAlive) {
      // Acquire before releasing so shared grandchildren never transit
      // through a spurious dead state.
      bookAcquire(*book, newHi);
      bookAcquire(*book, newLo);
    }
    store_.setFields(i, y, newHi, newLo);
    store_.linkIntoBucket(i);
    if (wasAlive) {
      --book->popVar[x];
      ++book->popVar[y];
      bookRelease(*book, f1);
      bookRelease(*book, f0);
    }
  }

  level2var_[level] = y;
  level2var_[level + 1] = x;
  var2level_[x] = level + 1;
  var2level_[y] = level;
  ++stats_.reorderSwaps;
  limits_ = savedLimits;

  // The in-place mutation above is the single most invariant-hostile code
  // path in the package (canonicity, order, and table completeness are all
  // re-established by hand), so audit the whole arena after every swap.
  // Both audits credit their wall time back to the deadline.
  ICBDD_CHECK(kFull, auditArenaCreditingTime(*this));
  if (book != nullptr) {
    ICBDD_CHECK(kFull, auditReorderBook(*book));
  }

  // Per-swap limit check, at a state every caller may safely abandon.
  if (limits_.maxNodes != 0 && allocatedNodes() > limits_.maxNodes) {
    throw ResourceLimitError(ResourceKind::kNodes);
  }
  if (limits_.deadline.isSet() && limits_.deadline.expired()) {
    throw ResourceLimitError(ResourceKind::kTime);
  }
}

void BddManager::swapAdjacentLevels(unsigned level) {
  if (level + 1 >= level2var_.size()) {
    throw BddUsageError("swapAdjacentLevels: level out of range");
  }
  swapLevelsInternal(level, nullptr);
}

std::int64_t BddManager::sift(std::uint64_t maxGrowth) {
  const unsigned nvars = varCount();
  if (nvars < 2) return 0;
  const Stopwatch siftWatch;
  const std::uint64_t swapsBefore = stats_.reorderSwaps;
  gc();

  ReorderBook book;
  initReorderBook(book);
  const std::int64_t before = static_cast<std::int64_t>(book.live);
  if (maxGrowth == 0) maxGrowth = static_cast<std::uint64_t>(before) * 2 + 1024;

  // Carve the current order into blocks: a maximal run of adjacent levels
  // sharing a registered group moves as one unit, everything else is a
  // singleton.  A group torn apart by manual swaps simply yields several
  // blocks.  Block membership and internal order never change below, so a
  // block is identified by its member variables (top to bottom).
  std::vector<std::vector<unsigned>> blocks;
  std::vector<std::size_t> blockOf(nvars);
  for (unsigned l = 0; l < nvars;) {
    const unsigned v = level2var_[l];
    std::vector<unsigned> members{v};
    unsigned next = l + 1;
    if (varGroup_[v] != kNoGroup) {
      while (next < nvars && varGroup_[level2var_[next]] == varGroup_[v]) {
        members.push_back(level2var_[next]);
        ++next;
      }
    }
    for (const unsigned m : members) blockOf[m] = blocks.size();
    blocks.push_back(std::move(members));
    l = next;
  }

  const auto blockTop = [&](std::size_t b) {
    return var2level_[blocks[b].front()];
  };
  // Exchanges block `b` with the block directly below it: the bottom member
  // sinks past the whole lower block, then the next one, ... -- m*n adjacent
  // swaps, both blocks keeping their internal order.
  const auto swapWithBelow = [&](std::size_t b) {
    const unsigned top = blockTop(b);
    const auto m = static_cast<unsigned>(blocks[b].size());
    const std::size_t lower = blockOf[level2var_[top + m]];
    const auto n = static_cast<unsigned>(blocks[lower].size());
    for (unsigned i = 0; i < m; ++i) {
      for (unsigned j = 0; j < n; ++j) {
        swapLevelsInternal(top + m - 1 - i + j, &book);
      }
    }
  };
  const auto swapWithAbove = [&](std::size_t b) {
    swapWithBelow(blockOf[level2var_[blockTop(b) - 1]]);
  };
  // Swaps strand their rewritten-out children as dead allocations; the book
  // keeps the *live* count bounded, but without collections the arena (and
  // with it the maxNodes accounting) would churn without bound across the
  // O(n^2) swaps of a full pass.  Collect whenever dead nodes dominate.
  const auto collectChurn = [&] {
    if (allocatedNodes() > book.live * 4 + 4096) gc();
  };

  // Sift blocks in decreasing order of live population.
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto population = [&](std::size_t b) {
    std::uint64_t total = 0;
    for (const unsigned v : blocks[b]) total += book.popVar[v];
    return total;
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return population(a) > population(b);
  });

  // One pause sample and one trace event per pass, interrupted or not, so
  // bdd.reorder.pause_us covers exactly what callers stalled on.
  const auto endPass = [&](bool interrupted) {
    ++stats_.reorderRuns;
    const double us = siftWatch.elapsedSeconds() * 1e6;
    stats_.reorderPauseUs.record(us <= 0.0 ? 0
                                           : static_cast<std::uint64_t>(us));
    if (obs::traceEnabled()) {
      obs::emitGlobalEvent(
          "reorder", *this,
          obs::JsonObject()
              .put("swaps", stats_.reorderSwaps - swapsBefore)
              .put("live_before", before)
              .put("live_after", static_cast<std::int64_t>(book.live))
              .put("interrupted", interrupted)
              .put("wall_s", siftWatch.elapsedSeconds()));
    }
  };

  try {
    for (const std::size_t b : order) {
      const auto m = static_cast<unsigned>(blocks[b].size());
      std::uint64_t best = book.live;
      unsigned bestTop = blockTop(b);
      // One step of a sweep; false once the live count outgrew the best
      // position seen by more than maxGrowth.
      const auto sweepStep = [&](const auto& move) {
        move(b);
        collectChurn();
        if (book.live < best) {
          best = book.live;
          bestTop = blockTop(b);
        }
        return book.live <= best + maxGrowth;
      };

      // Sweep down to the bottom, then up to the top...
      while (blockTop(b) + m < nvars && sweepStep(swapWithBelow)) {}
      while (blockTop(b) > 0 && sweepStep(swapWithAbove)) {}
      // ...and settle at the best position seen.  The other blocks' relative
      // order is untouched by moving this one, so every recorded top is
      // reachable exactly.
      while (blockTop(b) > bestTop) {
        swapWithAbove(b);
        collectChurn();
      }
      while (blockTop(b) < bestTop) {
        swapWithBelow(b);
        collectChurn();
      }
    }
  } catch (const ResourceLimitError&) {
    // swapLevelsInternal only throws between swaps, at a consistent state:
    // account for the partial pass and let the engine report its capped
    // verdict.  Dead nodes parked in the arena are normal pre-GC state.
    ++stats_.reorderInterrupted;
    endPass(true);
    throw;
  }

  gc();  // reclaim the intermediates the sweeps abandoned
  const std::int64_t after = static_cast<std::int64_t>(book.live);
  if (after < before) {
    stats_.reorderSavedNodes += static_cast<std::uint64_t>(before - after);
  }
  endPass(false);
  ICBDD_CHECK(kFull, auditArenaCreditingTime(*this));
  return after - before;
}

// ---------------------------------------------------------------------------
// growth-triggered automatic reordering

void BddManager::maybeAutoReorderPostGc() {
  if (!options_.autoReorder || inReorder_) return;
  // A collection just finished, so allocatedNodes() is the exact live count.
  const std::uint64_t live = allocatedNodes();
  if (reorderBaseline_ == 0) {
    // First safe point with the policy armed: record the reference size.
    reorderBaseline_ = std::max<std::uint64_t>(live, 1);
    return;
  }
  if (live < options_.reorderMinLiveNodes) return;
  if (static_cast<double>(live) <
      options_.reorderTrigger * static_cast<double>(reorderBaseline_)) {
    return;
  }
  inReorder_ = true;
  // Re-base before sifting: even an interrupted pass must not re-arm the
  // trigger at the very next safe point.
  reorderBaseline_ = live;
  try {
    sift();
  } catch (...) {
    inReorder_ = false;
    throw;
  }
  inReorder_ = false;
  reorderBaseline_ = std::max<std::uint64_t>(allocatedNodes(), 1);
}

bool BddManager::autoReorderIfNeeded() {
  if (!options_.autoReorder || inReorder_) return false;
  if (reorderBaseline_ != 0) {
    // allocatedNodes() bounds the live count from above, so a cheap
    // comparison against it skips the gc() most iterations.
    const std::uint64_t allocated = allocatedNodes();
    if (allocated < options_.reorderMinLiveNodes) return false;
    if (static_cast<double>(allocated) <
        options_.reorderTrigger * static_cast<double>(reorderBaseline_)) {
      return false;
    }
  }
  gc();
  const std::uint64_t runsBefore = stats_.reorderRuns;
  maybeAutoReorderPostGc();
  return stats_.reorderRuns != runsBefore;
}

}  // namespace icb
