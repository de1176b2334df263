// Save/load of BDDs, e.g. to checkpoint derived invariant lists.
//
// Text format (line oriented, self-describing):
//   icbdd-bdd-v2
//   vars <count>
//   v <index> <name>            (one per variable)
//   order <var> <var> ...       (level->var map: the variable at each level)
//   nodes <count>
//   n <id> <var> <hi> <lo>      (children: T, F, or [!]<id> of an earlier n)
//   roots <count>
//   r <ref>                     (same reference syntax)
//
// Node ids are file-local and topologically ordered (children precede
// parents), so loading is a single pass of mk() calls; shared subgraphs and
// complement edges round-trip exactly.
//
// v2 persists the writer's variable ORDER (the level->var map), not just the
// variables: a snapshot taken after dynamic reordering reloads with the same
// order, so node counts, Restrict forms, and minterm picks -- everything a
// resumed run's byte-identical replay depends on -- match the saved manager,
// not whatever order the loading manager happened to be in.  v1 files (no
// order line) still load; they keep the loading manager's current order.
//
// Binary format (icbdd-bdd-v3): a magic line followed by a little-endian
// body -- near-memcpy of the topologically ordered node records.  See
// docs/node_layout.md ("On-disk contract") for the full byte layout.
// loadBdds auto-detects all three versions from the magic line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "bdd/bdd.hpp"

namespace icb {

/// Malformed, truncated, or corrupt serialized input.  Derives from
/// BddUsageError so pre-existing catch sites keep working; carries the byte
/// offset into the stream at which the problem was detected so fuzzed or
/// truncated dumps produce an actionable message instead of silently loading
/// a prefix.
class SerializeError : public BddUsageError {
 public:
  SerializeError(const std::string& what, std::uint64_t byteOffset)
      : BddUsageError(what + " (at byte " + std::to_string(byteOffset) + ")"),
        byteOffset_(byteOffset) {}

  /// Byte offset (from the start of the stream) of the offending input.
  [[nodiscard]] std::uint64_t byteOffset() const { return byteOffset_; }

 private:
  std::uint64_t byteOffset_;
};

/// Writes the DAG reachable from `roots` (shared nodes once), text v2.
void saveBdds(std::ostream& os, const BddManager& mgr,
              std::span<const Bdd> roots);

/// Writes the DAG reachable from `roots` in the icbdd-bdd-v3 binary format.
/// Loads via the same loadBdds below (auto-detected); round-trips
/// bit-identically through save -> load -> save.
void saveBddsBinary(std::ostream& os, const BddManager& mgr,
                    std::span<const Bdd> roots);

/// Reads functions saved by saveBdds/saveBddsBinary into `mgr` (the format
/// version is auto-detected from the magic line).  Missing variables are
/// created (with their saved names) so the manager may start empty; when
/// variables already exist they are matched by index.  When the file carries
/// a variable order (v2/v3) and the manager has exactly the file's
/// variables, the saved order is restored via applyVarOrder before nodes are
/// rebuilt.  Throws SerializeError on malformed, truncated, or corrupt
/// input.
std::vector<Bdd> loadBdds(std::istream& is, BddManager& mgr);

/// Header summary of a dump, for tooling (icbdd_doctor --dump-store).
struct DumpInfo {
  int version = 0;          ///< 1, 2, or 3
  bool binary = false;      ///< true for icbdd-bdd-v3
  std::uint64_t varCount = 0;
  std::uint64_t nodeCount = 0;
  std::uint64_t rootCount = 0;
  std::uint64_t nodeBytes = 0;  ///< bytes of node payload (v3: 16 per node)
};

/// Parses just enough of a dump to fill DumpInfo without building any nodes.
/// Throws SerializeError on malformed or truncated input.
DumpInfo inspectDump(std::istream& is);

/// Reorders `mgr` (by adjacent-level swaps, semantics preserved) until its
/// level->var map equals `level2var`, which must be a permutation of all the
/// manager's variables.  No-op when the order already matches.  Throws
/// BddUsageError on a malformed permutation.
void applyVarOrder(BddManager& mgr, std::span<const unsigned> level2var);

}  // namespace icb
