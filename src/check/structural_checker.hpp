// StructuralChecker: whole-arena audit of a BddManager.
//
// Validates, against the canonical-form contract documented in
// bdd/manager.hpp and docs/invariants.md:
//   * variable ordering    -- children strictly below their parents,
//   * canonical form       -- no complemented then-arcs, no redundant
//                             (hi == lo) nodes, no duplicate (var, hi, lo)
//                             triples (hash-consing uniqueness),
//   * unique-table completeness -- every live node in its variable's
//                             subtable, every chain entry live and in the
//                             right subtable and bucket, no chain cycles,
//   * free-list consistency -- chain length matches the freeCount_ counter
//                             and the number of freed slots,
//   * GC-root consistency  -- freed nodes carry no external references and
//                             every projection edge still denotes its
//                             variable.
//
// The checker never mutates the manager and never allocates nodes, so it is
// safe to call at any point, including from inside a corrupted manager's
// diagnosis (the doctor binary does exactly that).
#pragma once

#include "check/check.hpp"

namespace icb {

class BddManager;

class StructuralChecker {
 public:
  explicit StructuralChecker(const BddManager& mgr) : mgr_(mgr) {}

  /// Runs the audit.  kCheap covers the O(free-list + variables) subset
  /// (free-list and root consistency); kFull adds the O(arena) node walk
  /// and the unique-table sweep.  kOff returns an empty, passing report.
  [[nodiscard]] CheckReport run(CheckLevel effort = CheckLevel::kFull) const;

  /// run() + CheckReport::throwIfBroken().
  void throwIfBroken(CheckLevel effort = CheckLevel::kFull) const {
    run(effort).throwIfBroken();
  }

 private:
  void checkNodes(CheckReport& report) const;
  void checkUniqueTable(CheckReport& report) const;
  void checkFreeList(CheckReport& report) const;
  void checkRoots(CheckReport& report) const;

  const BddManager& mgr_;
};

/// Full structural audit that credits its own wall-clock cost back to the
/// manager's deadline.  The audit sites inside resource-limited phases (GC,
/// reordering, engine iterations) use this so ICBDD_CHECK_LEVEL=full slows
/// a run down but never flips its verdict to a spurious deadline abort.
void auditArenaCreditingTime(BddManager& mgr,
                             CheckLevel effort = CheckLevel::kFull);

}  // namespace icb
