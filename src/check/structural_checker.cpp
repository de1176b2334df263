#include "check/structural_checker.hpp"

#include <unordered_map>

#include "bdd/manager.hpp"
#include "util/timer.hpp"

namespace icb {

namespace {

std::string nodeDesc(std::uint32_t index, const char* what) {
  return "node " + std::to_string(index) + ": " + what;
}

}  // namespace

CheckReport StructuralChecker::run(CheckLevel effort) const {
  CheckReport report;
  if (effort == CheckLevel::kOff) return report;
  checkFreeList(report);
  checkRoots(report);
  if (effort >= CheckLevel::kFull) {
    checkNodes(report);
    checkUniqueTable(report);
  }
  return report;
}

void auditArenaCreditingTime(BddManager& mgr, CheckLevel effort) {
  const Stopwatch watch;
  StructuralChecker(mgr).throwIfBroken(effort);
  ResourceLimits limits = mgr.limits();
  limits.deadline.extendBySeconds(watch.elapsedSeconds());
  mgr.setLimits(limits);
}

void StructuralChecker::checkNodes(CheckReport& report) const {
  const NodeStore& store = mgr_.store_;
  // Freed nodes carry no count by construction (the side table only holds
  // externally referenced indices), so a stale entry on a free node is a
  // root-set corruption.
  for (const auto& [i, r] : store.refs()) {
    if (i != 0 && r != 0 && store.isFree(i)) {
      report.add(ViolationKind::kStaleRefOnFreeNode,
                 nodeDesc(i, "freed but ref = ") + std::to_string(r));
    }
  }

  // packed (var, hi, lo) -> indices seen, for hash-consing uniqueness.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> seen;
  seen.reserve(store.size());

  for (std::uint32_t i = 1; i < store.size(); ++i) {
    if (store.isFree(i)) continue;
    const unsigned var = store.varOf(i);
    const Edge hi = store.hiOf(i);
    const Edge lo = store.loOf(i);
    ++report.itemsChecked;
    if (var >= mgr_.varEdges_.size()) {
      report.add(ViolationKind::kInvalidEdge,
                 nodeDesc(i, "variable out of range: ") + std::to_string(var));
      continue;
    }
    if (edgeIsComplemented(hi)) {
      report.add(ViolationKind::kComplementedThenArc,
                 nodeDesc(i, "then-arc carries the complement bit"));
    }
    if (hi == lo) {
      report.add(ViolationKind::kRedundantNode,
                 nodeDesc(i, "hi == lo (should have been collapsed by mk)"));
    }
    const unsigned myLevel = mgr_.var2level_[var];
    for (const Edge child : {hi, lo}) {
      if (edgeIndex(child) >= store.size()) {
        report.add(ViolationKind::kInvalidEdge,
                   nodeDesc(i, "child edge index out of the arena"));
        continue;
      }
      if (edgeIsConstant(child)) continue;
      const unsigned childVar = store.varOf(edgeIndex(child));
      if (childVar == BddManager::kFreeVar) {
        report.add(ViolationKind::kDanglingChild,
                   nodeDesc(i, "points at freed node ") +
                       std::to_string(edgeIndex(child)));
      } else if (childVar >= mgr_.var2level_.size()) {
        report.add(ViolationKind::kInvalidEdge,
                   nodeDesc(edgeIndex(child), "child variable out of range"));
      } else if (mgr_.var2level_[childVar] <= myLevel) {
        report.add(ViolationKind::kOrderViolation,
                   nodeDesc(i, "child ") + std::to_string(edgeIndex(child)) +
                       " is not strictly below it in the order");
      }
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(var) << 40) ^
                              (static_cast<std::uint64_t>(hi) << 20) ^
                              static_cast<std::uint64_t>(lo);
    // The packed key is not injective in principle, so confirm field-by-field
    // among the nodes sharing it before reporting a duplicate.
    std::vector<std::uint32_t>& bucket = seen[key];
    for (const std::uint32_t j : bucket) {
      if (store.varOf(j) == var && store.hiOf(j) == hi && store.loOf(j) == lo) {
        report.add(ViolationKind::kDuplicateNode,
                   nodeDesc(i, "duplicates node ") + std::to_string(j) +
                       " (hash-consing uniqueness broken)");
        break;
      }
    }
    bucket.push_back(i);
  }
}

void StructuralChecker::checkUniqueTable(CheckReport& report) const {
  const NodeStore& store = mgr_.store_;

  // Sweep every subtable: entries must be in range, live, of the
  // subtable's variable and in their hash bucket; no node may be chained
  // twice (a cycle or two merged chains); and each subtable must chain
  // exactly as many nodes as it counts.
  std::vector<std::uint8_t> chained(store.size(), 0);
  for (unsigned v = 0; v < store.subtableCount(); ++v) {
    const auto corrupt = [&](const std::string& what) {
      report.add(ViolationKind::kUniqueTableChainCorrupt,
                 "subtable of v" + std::to_string(v) + what);
    };
    std::uint64_t steps = 0;
    for (std::size_t b = 0; b < store.bucketCount(v); ++b) {
      for (std::uint32_t i = store.bucketHead(v, b); i != BddManager::kNil;
           i = store.nextOf(i), ++steps) {
        const char* bad = i >= store.size()  ? " chains out of the arena to "
                          : chained[i] != 0  ? " has a cycle or a merge at "
                          : store.isFree(i)  ? " chains to freed node "
                                             : nullptr;
        if (bad != nullptr) {
          corrupt(bad + std::to_string(i));
          break;
        }
        chained[i] = 1;
        if (store.varOf(i) != v) {
          corrupt(" chains node " + std::to_string(i) + " of v" +
                  std::to_string(store.varOf(i)));
        } else if (store.hashOf(v, store.hiOf(i), store.loOf(i)) != b) {
          corrupt(" chains node " + std::to_string(i) + " in the wrong bucket");
        }
      }
    }
    if (steps != store.subtableSize(v)) {
      corrupt(" chains " + std::to_string(steps) + " nodes but counts " +
              std::to_string(store.subtableSize(v)));
    }
  }

  // Completeness: every allocated node is chained somewhere (and, by the
  // sweep above, in its variable's subtable under its own bucket).
  for (std::uint32_t i = 1; i < store.size(); ++i) {
    if (store.isFree(i)) continue;
    ++report.itemsChecked;
    if (chained[i] == 0) {
      report.add(ViolationKind::kUniqueTableMiss,
                 nodeDesc(i, "not reachable from its hash bucket"));
    }
  }
}

void StructuralChecker::checkFreeList(CheckReport& report) const {
  const NodeStore& store = mgr_.store_;
  std::uint64_t length = 0;
  for (std::uint32_t i = store.freeHead(); i != BddManager::kNil;
       i = store.nextOf(i)) {
    if (i >= store.size()) {
      report.add(ViolationKind::kFreeListCorrupt,
                 "free list chains to out-of-range index " + std::to_string(i));
      return;
    }
    if (!store.isFree(i)) {
      report.add(ViolationKind::kFreeListCorrupt,
                 nodeDesc(i, "on the free list but not marked free"));
      return;
    }
    if (++length > store.size()) {
      report.add(ViolationKind::kFreeListCorrupt, "free list has a cycle");
      return;
    }
  }
  if (length != store.freeCount()) {
    report.add(ViolationKind::kFreeListCorrupt,
               "free list length " + std::to_string(length) +
                   " != freeCount " + std::to_string(store.freeCount()));
  }
  report.itemsChecked += length;
}

void StructuralChecker::checkRoots(CheckReport& report) const {
  const NodeStore& store = mgr_.store_;
  // The terminal is a permanent root.
  if (store.size() == 0 || store.refOf(0) != BddManager::kMaxRef) {
    report.add(ViolationKind::kVarEdgeCorrupt,
               "terminal node is missing its permanent reference");
    return;
  }
  // Every projection edge must still denote its variable and stay pinned.
  for (unsigned v = 0; v < mgr_.varEdges_.size(); ++v) {
    ++report.itemsChecked;
    const Edge e = mgr_.varEdges_[v];
    if (edgeIndex(e) >= store.size() || edgeIsComplemented(e) ||
        edgeIsConstant(e)) {
      report.add(ViolationKind::kVarEdgeCorrupt,
                 "projection edge of v" + std::to_string(v) + " is malformed");
      continue;
    }
    const std::uint32_t i = edgeIndex(e);
    if (store.varOf(i) != v || store.hiOf(i) != kTrueEdge ||
        store.loOf(i) != kFalseEdge) {
      report.add(ViolationKind::kVarEdgeCorrupt,
                 "projection edge of v" + std::to_string(v) +
                     " no longer denotes the variable");
    } else if (store.refOf(i) == 0) {
      report.add(ViolationKind::kVarEdgeCorrupt,
                 "projection node of v" + std::to_string(v) +
                     " lost its pin reference");
    }
  }
}

}  // namespace icb
