// Save/load of BDDs, e.g. to checkpoint derived invariant lists.
//
// One format, icbdd-bdd-v3: the magic line `icbdd-bdd-v3\n`, then a
// little-endian binary body -- the writer's variable names and variable
// ORDER (level->var map), one fixed 16-byte record per node, the root
// references, and a trailing FNV-1a checksum.  docs/node_layout.md
// ("On-disk contract") has the byte layout.
//
// Node ids are file-local and topologically ordered (children precede
// parents), so loading is a single pass of ITE calls; shared subgraphs and
// complement edges round-trip exactly.  Because the order is persisted, a
// snapshot taken after dynamic reordering reloads with the same order, so
// node counts, Restrict forms, and minterm picks -- everything a resumed
// run's byte-identical replay depends on -- match the saved manager, not
// whatever order the loading manager happened to be in.
//
// The earlier text dump formats (versions 1 and 2) are not read: loading
// one fails with a SerializeError naming its magic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
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
  /// A dump embedded after other data, such as a checkpoint's header lines,
  /// counts from the start of that enclosing stream.
  [[nodiscard]] std::uint64_t byteOffset() const { return byteOffset_; }

 private:
  std::uint64_t byteOffset_;
};

/// Writes the DAG reachable from `roots` (shared nodes once).  Round-trips
/// bit-identically through save -> load -> save.
void saveBdds(std::ostream& os, const BddManager& mgr,
              std::span<const Bdd> roots);

/// Reads functions saved by saveBdds into `mgr`.  Missing variables are
/// created (with their saved names) so the manager may start empty; when
/// variables already exist they are matched by index.  When the manager has
/// exactly the file's variables, the saved order is restored via
/// applyVarOrder before nodes are rebuilt.  The whole dump is decoded and
/// checksum-verified before `mgr` is touched; throws SerializeError on
/// malformed, truncated, or corrupt input.
std::vector<Bdd> loadBdds(std::istream& is, BddManager& mgr);

/// Header summary of a dump, for tooling (icbdd_doctor --dump-store).
struct DumpInfo {
  std::uint64_t varCount = 0;
  std::uint64_t nodeCount = 0;
  std::uint64_t rootCount = 0;
  std::uint64_t nodeBytes = 0;  ///< bytes of node payload (16 per node)
};

/// Parses just the header of a dump to fill DumpInfo without building any
/// nodes.  Throws SerializeError on malformed or truncated input.
DumpInfo inspectDump(std::istream& is);

/// A dump decoded and checksum-verified, without building any nodes: the
/// records exactly as stored.  A reference is 0 for TRUE, 1 for FALSE, else
/// ((node id + 1) << 1) | complement, where a node's id is its position in
/// `nodes` and refers only to an earlier node.
struct DumpRecords {
  struct Node {
    std::uint32_t var;
    std::uint32_t hi;
    std::uint32_t lo;
  };
  std::vector<std::string> varNames;
  std::vector<unsigned> level2var;  ///< a permutation of the variables
  std::vector<Node> nodes;
  std::vector<std::uint32_t> roots;
};

/// Decodes a whole dump (what loadBdds reads before it builds anything).
/// Throws SerializeError on malformed, truncated, or corrupt input.
DumpRecords readDump(std::istream& is);

/// Reorders `mgr` (by adjacent-level swaps, semantics preserved) until its
/// level->var map equals `level2var`, which must be a permutation of all the
/// manager's variables.  No-op when the order already matches.  Throws
/// BddUsageError on a malformed permutation.
void applyVarOrder(BddManager& mgr, std::span<const unsigned> level2var);

}  // namespace icb
