// Runtime invariant-checking layer for the BDD core and the ICI structures.
//
// The package's correctness rests on structural invariants that ordinary
// tests exercise only indirectly: complement edges restricted to else-arcs,
// hash-consed canonicity, unique-table completeness, GC root consistency,
// and -- at the ICI layer -- the guarantee that Restrict-based
// cross-simplification and greedy conjunction evaluation preserve the
// denoted conjunction (paper Section III).  The checkers in this directory
// make violations of those invariants loud:
//
//   StructuralChecker  walks the node arena and the unique table,
//   CacheAuditor       samples computed-cache entries and re-executes them,
//   IciChecker         spot-checks ConjunctList / PairTable semantics.
//
// Checks are gated by a process-wide level:
//
//   off    no checking (production default),
//   cheap  O(1)-per-operation argument/result validation,
//   full   whole-structure audits at phase boundaries (GC, reorder,
//          simplification passes, engine iterations).
//
// The level comes from the ICBDD_CHECK_LEVEL environment variable
// ("off" / "cheap" / "full", or 0 / 1 / 2) and can be changed at runtime
// with setCheckLevel().  Library code threads checks through the hot paths
// with the ICBDD_CHECK macro, which compiles to a single relaxed atomic
// load and a branch when the level is off.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace icb {

enum class CheckLevel : int { kOff = 0, kCheap = 1, kFull = 2 };

/// Parses "off" / "cheap" / "full" (case-insensitive) or "0" / "1" / "2".
/// Returns false (out untouched) on anything else.
bool parseCheckLevel(const std::string& text, CheckLevel* out);

namespace check_detail {
extern std::atomic<int> g_level;  // initialized from ICBDD_CHECK_LEVEL
}  // namespace check_detail

/// The process-wide check level.
[[nodiscard]] inline CheckLevel checkLevel() {
  // relaxed: the level is a standalone knob -- no other data is published
  // with it, and a momentarily stale read only delays a level change by one
  // check site.  Keeps the off-path to a plain load + branch.
  return static_cast<CheckLevel>(
      check_detail::g_level.load(std::memory_order_relaxed));
}

void setCheckLevel(CheckLevel level);

/// Runs `...` only when the process check level is at least `levelTag`
/// (kCheap or kFull).  The guard is one relaxed load + compare, so leaving
/// these in release builds costs nothing measurable while the level is off.
#define ICBDD_CHECK(levelTag, ...)                                     \
  do {                                                                 \
    if (::icb::checkLevel() >= ::icb::CheckLevel::levelTag) {          \
      __VA_ARGS__;                                                     \
    }                                                                  \
  } while (false)

// ---------------------------------------------------------------------------
// violation taxonomy

/// Every invariant class the checkers enforce.  docs/invariants.md catalogues
/// each one with its paper cross-reference; the mutation tests in
/// tests/check_test.cpp deliberately break each class and assert the
/// matching kind is reported.
enum class ViolationKind {
  // node arena / canonical form (StructuralChecker)
  kInvalidEdge,             ///< edge index out of the arena, or into a freed node
  kComplementedThenArc,     ///< stored then-arc carries the complement bit
  kRedundantNode,           ///< node with hi == lo survived mk()
  kOrderViolation,          ///< child's level not strictly below its parent's
  kDanglingChild,           ///< live node points at a free-listed node
  kDuplicateNode,           ///< two live nodes share one (var, hi, lo) triple
  // unique table / free list (StructuralChecker)
  kUniqueTableMiss,         ///< live node unreachable from its hash bucket
  kUniqueTableChainCorrupt, ///< freed node, cycle, wrong bucket or variable
  kFreeListCorrupt,         ///< free-list length disagrees with the counters
  // GC roots (StructuralChecker / BddManager::deref)
  kStaleRefOnFreeNode,      ///< freed node still carries an external refcount
  kVarEdgeCorrupt,          ///< projection edge is not the function of its variable
  kRefUnderflow,            ///< deref of a node whose external refcount is zero
  // reordering (BddManager::auditReorderBook)
  kReorderBookMismatch,     ///< sift's incremental live count != full mark pass
  // computed cache (CacheAuditor)
  kCacheDanglingEdge,       ///< cache entry references a freed or out-of-range node
  kCacheWrongResult,        ///< re-executing the operator disagrees with the cache
  // ICI layer (IciChecker)
  kDenotationChanged,       ///< a conjunct list stopped denoting its conjunction
  kPairTableMismatch,       ///< stored P_ij differs from a fresh X_i & X_j
  kPairTableStaleSize,      ///< cached size column out of sync with the BDDs
};

[[nodiscard]] const char* violationKindName(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  std::string detail;
};

/// Thrown by throwIfBroken() (and by ICBDD_CHECK sites) on the first
/// violation found.  Distinct from BddUsageError: a CheckFailure means the
/// *library* corrupted its own structures, not that the caller misused them.
class CheckFailure : public std::runtime_error {
 public:
  CheckFailure(ViolationKind kind, const std::string& detail)
      : std::runtime_error(std::string(violationKindName(kind)) + ": " +
                           detail),
        kind_(kind) {}

  [[nodiscard]] ViolationKind kind() const { return kind_; }

 private:
  ViolationKind kind_;
};

/// Accumulated result of one audit.  Checkers report every violation they
/// can find (not just the first) so the doctor binary can print a complete
/// diagnosis of a corrupted dump.
struct CheckReport {
  std::vector<Violation> violations;
  std::uint64_t itemsChecked = 0;  ///< nodes / cache entries / pairs visited

  [[nodiscard]] bool ok() const { return violations.empty(); }

  void add(ViolationKind kind, std::string detail) {
    violations.push_back(Violation{kind, std::move(detail)});
  }

  void merge(CheckReport&& other) {
    for (Violation& v : other.violations) violations.push_back(std::move(v));
    itemsChecked += other.itemsChecked;
  }

  /// True iff some violation has the given kind.
  [[nodiscard]] bool has(ViolationKind kind) const;

  /// Multi-line human-readable rendering ("ok (N items checked)" or one
  /// line per violation).
  [[nodiscard]] std::string summary() const;

  /// Throws CheckFailure for the first violation; no-op when ok.
  void throwIfBroken() const;
};

}  // namespace icb
