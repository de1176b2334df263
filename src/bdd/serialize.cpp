#include "bdd/serialize.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>

namespace icb {

namespace {

constexpr char kMagic[] = "icbdd-bdd-v3\n";
constexpr std::size_t kMagicSize = sizeof kMagic - 1;

// ---------------------------------------------------------------------------
// Shared: topological node collection (children before parents).

void collectTopo(const BddManager& mgr, std::span<const Bdd> roots,
                 std::unordered_map<std::uint32_t, std::size_t>& ids,
                 std::vector<std::uint32_t>& order) {
  std::vector<std::pair<std::uint32_t, bool>> stack;
  for (const Bdd& root : roots) {
    if (root.manager() != &mgr) {
      throw BddUsageError("saveBdds: root from a different manager");
    }
    if (!root.isConstant()) stack.emplace_back(edgeIndex(root.edge()), false);
  }
  while (!stack.empty()) {
    auto [index, expanded] = stack.back();
    stack.pop_back();
    if (ids.count(index) != 0) continue;
    const Edge plain = makeEdge(index, false);
    if (expanded) {
      ids.emplace(index, order.size());
      order.push_back(index);
      continue;
    }
    stack.emplace_back(index, true);
    for (const Edge child : {mgr.edgeThen(plain), mgr.edgeElse(plain)}) {
      if (!edgeIsConstant(child) && ids.count(edgeIndex(child)) == 0) {
        stack.emplace_back(edgeIndex(child), false);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Byte helpers.  The body is explicitly little-endian -- values are
// assembled byte by byte so the format is host-endianness independent -- and
// covered by a trailing FNV-1a checksum.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint32_t kEndianTag = 0x01020304u;

class ByteWriter {
 public:
  explicit ByteWriter(std::ostream& os) : os_(os) {}

  void bytes(const void* p, std::size_t n) {
    os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ b[i]) * kFnvPrime;
    }
  }

  void u32(std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof b);
  }

  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof b);
  }

  /// Writes v WITHOUT folding it into the hash -- for the checksum itself.
  void u64raw(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    os_.write(b, sizeof b);
  }

  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::ostream& os_;
  std::uint64_t hash_ = kFnvOffset;
};

/// Reads the dump, counting offsets from the stream's position at the start
/// so that a dump embedded after other data (a checkpoint's header lines)
/// reports errors relative to the whole stream.
class ByteReader {
 public:
  explicit ByteReader(std::istream& is) : is_(is), offset_(position(is)) {}

  /// Reads n bytes WITHOUT hashing -- for the magic and the checksum.
  void raw(void* p, std::size_t n, const char* what) {
    is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    const auto got = static_cast<std::size_t>(is_.gcount());
    if (got != n) {
      throw SerializeError(
          std::string("loadBdds: truncated input reading ") + what,
          offset_ + got);
    }
    offset_ += n;
  }

  void bytes(void* p, std::size_t n, const char* what) {
    raw(p, n, what);
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ b[i]) * kFnvPrime;
    }
  }

  std::uint32_t u32(const char* what) {
    unsigned char b[4];
    bytes(b, sizeof b, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
    return v;
  }

  std::uint64_t u64(const char* what) {
    unsigned char b[8];
    bytes(b, sizeof b, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
    return v;
  }

  /// Reads WITHOUT hashing -- for the trailing checksum field.
  std::uint64_t u64raw(const char* what) {
    unsigned char b[8];
    raw(b, sizeof b, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
    return v;
  }

  [[nodiscard]] std::uint64_t offset() const { return offset_; }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  static std::uint64_t position(std::istream& is) {
    // tellg() reports -1 once eofbit is set; an exhausted stream still has
    // a position, and the first read then reports the truncation there.
    if (is.rdstate() == std::ios::eofbit) is.clear();
    const std::streampos at = is.tellg();
    return at == std::streampos(-1) ? 0 : static_cast<std::uint64_t>(at);
  }

  std::istream& is_;
  std::uint64_t offset_;
  std::uint64_t hash_ = kFnvOffset;
};

/// Counts in a dump header come from untrusted bytes: a corrupt count must
/// fail as a typed parse error when the records run out, never as a
/// multi-gigabyte up-front allocation.  Reservations are clamped to this and
/// vectors grow normally past it; variable names longer than this are
/// rejected outright (no legitimate name comes close).
constexpr std::uint64_t kReserveClamp = std::uint64_t{1} << 20;

/// v3 reference: 0 = TRUE, 1 = FALSE, else ((file id + 1) << 1) | complement.
std::uint32_t binRefOf(Edge e,
                       const std::unordered_map<std::uint32_t, std::size_t>& ids) {
  if (e == kTrueEdge) return 0;
  if (e == kFalseEdge) return 1;
  const auto id = static_cast<std::uint32_t>(ids.at(edgeIndex(e)));
  return ((id + 1u) << 1) | (edgeIsComplemented(e) ? 1u : 0u);
}

/// Rejects a reference to a node not decoded before it.
std::uint32_t checkedRef(std::uint32_t ref, std::size_t decoded,
                         std::uint64_t offset) {
  if (ref > 1 && (ref >> 1) - 1u >= decoded) {
    throw SerializeError(
        "loadBdds: node reference " + std::to_string((ref >> 1) - 1u) +
            " points past the nodes decoded so far (not topologically ordered?)",
        offset);
  }
  return ref;
}

Edge edgeOfRef(std::uint32_t ref, const std::vector<Edge>& loaded) {
  if (ref == 0) return kTrueEdge;
  if (ref == 1) return kFalseEdge;
  const Edge e = loaded[(ref >> 1) - 1u];
  return (ref & 1u) != 0 ? edgeNot(e) : e;
}

bool isPermutation(std::span<const unsigned> level2var) {
  std::vector<bool> seen(level2var.size(), false);
  for (const unsigned var : level2var) {
    if (var >= level2var.size() || seen[var]) return false;
    seen[var] = true;
  }
  return true;
}

/// Reads the magic line and the fixed header fields after it.
DumpInfo readHeader(ByteReader& r) {
  std::string magic(kMagicSize, '\0');
  r.raw(magic.data(), kMagicSize, "magic line");
  if (magic != kMagic) {
    throw SerializeError("loadBdds: bad magic '" +
                             magic.substr(0, magic.find('\n')) +
                             "' (expected icbdd-bdd-v3)",
                         r.offset() - kMagicSize);
  }
  const std::uint32_t endian = r.u32("endian tag");
  if (endian != kEndianTag) {
    throw SerializeError("loadBdds: bad endian tag (byte-swapped or corrupt?)",
                         r.offset() - 4);
  }
  const std::uint32_t features = r.u32("feature flags");
  if (features != 0) {
    throw SerializeError("loadBdds: unknown feature flags " +
                             std::to_string(features) +
                             " (written by a newer version?)",
                         r.offset() - 4);
  }
  DumpInfo h;
  h.varCount = r.u64("var count");
  h.nodeCount = r.u64("node count");
  h.rootCount = r.u64("root count");
  h.nodeBytes = h.nodeCount * 16;
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Save.  Layout documented in docs/node_layout.md.

void saveBdds(std::ostream& os, const BddManager& mgr,
              std::span<const Bdd> roots) {
  std::unordered_map<std::uint32_t, std::size_t> ids;
  std::vector<std::uint32_t> order;
  collectTopo(mgr, roots, ids, order);

  os.write(kMagic, kMagicSize);
  ByteWriter w(os);
  w.u32(kEndianTag);
  w.u32(0);  // feature flags: none defined yet
  w.u64(mgr.varCount());
  w.u64(order.size());
  w.u64(roots.size());
  for (unsigned v = 0; v < mgr.varCount(); ++v) {
    const std::string& name = mgr.varName(v);
    w.u32(static_cast<std::uint32_t>(name.size()));
    w.bytes(name.data(), name.size());
  }
  for (unsigned level = 0; level < mgr.varCount(); ++level) {
    w.u32(mgr.varAtLevel(level));
  }
  for (const std::uint32_t index : order) {
    const Edge plain = makeEdge(index, false);
    // 16-byte record mirroring the arena shape: word0 = var<<32 | hi ref,
    // word1 = lo ref (upper half reserved, zero).
    const std::uint64_t w0 = (std::uint64_t{mgr.nodeVar(plain)} << 32) |
                             binRefOf(mgr.edgeThen(plain), ids);
    const std::uint64_t w1 = binRefOf(mgr.edgeElse(plain), ids);
    w.u64(w0);
    w.u64(w1);
  }
  for (const Bdd& root : roots) {
    if (root.isConstant()) {
      w.u32(root.isOne() ? 0u : 1u);
    } else {
      w.u32(binRefOf(root.edge(), ids));
    }
  }
  w.u64raw(w.hash());
}

// ---------------------------------------------------------------------------
// Load.

DumpInfo inspectDump(std::istream& is) {
  ByteReader r(is);
  return readHeader(r);
}

DumpRecords readDump(std::istream& is) {
  ByteReader r(is);
  const DumpInfo h = readHeader(r);
  DumpRecords d;

  d.varNames.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(h.varCount, kReserveClamp)));
  for (std::uint64_t v = 0; v < h.varCount; ++v) {
    const std::uint32_t len = r.u32("name length");
    if (len > kReserveClamp) {
      throw SerializeError("loadBdds: implausible variable name length " +
                               std::to_string(len) + " (corrupt dump?)",
                           r.offset() - 4);
    }
    std::string& name = d.varNames.emplace_back(len, '\0');
    if (len != 0) r.bytes(name.data(), len, "variable name");
  }

  const std::uint64_t orderAt = r.offset();
  d.level2var.reserve(d.varNames.size());
  for (std::uint64_t level = 0; level < h.varCount; ++level) {
    d.level2var.push_back(r.u32("order entry"));
  }
  if (!isPermutation(d.level2var)) {
    throw SerializeError(
        "loadBdds: order table is not a permutation of the variables",
        orderAt);
  }

  d.nodes.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(h.nodeCount, kReserveClamp)));
  for (std::uint64_t i = 0; i < h.nodeCount; ++i) {
    const std::uint64_t recordAt = r.offset();
    // 16-byte record: word0 = var<<32 | hi ref, word1 = lo ref (upper half
    // reserved, zero).
    const std::uint64_t w0 = r.u64("node record");
    const std::uint64_t w1 = r.u64("node record");
    const auto var = static_cast<std::uint32_t>(w0 >> 32);
    if (var >= h.varCount) {
      throw SerializeError("loadBdds: node variable " + std::to_string(var) +
                               " out of range",
                           recordAt);
    }
    if ((w1 >> 32) != 0) {
      throw SerializeError("loadBdds: reserved node bits set", recordAt);
    }
    d.nodes.push_back(
        {var,
         checkedRef(static_cast<std::uint32_t>(w0), d.nodes.size(), recordAt),
         checkedRef(static_cast<std::uint32_t>(w1), d.nodes.size(), recordAt)});
  }

  d.roots.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(h.rootCount, kReserveClamp)));
  for (std::uint64_t i = 0; i < h.rootCount; ++i) {
    const std::uint64_t at = r.offset();
    d.roots.push_back(checkedRef(r.u32("root record"), d.nodes.size(), at));
  }

  const std::uint64_t expect = r.hash();
  const std::uint64_t stored = r.u64raw("checksum");
  if (stored != expect) {
    throw SerializeError("loadBdds: checksum mismatch (corrupt dump)",
                         r.offset() - 8);
  }
  return d;
}

std::vector<Bdd> loadBdds(std::istream& is, BddManager& mgr) {
  const DumpRecords d = readDump(is);
  for (std::size_t v = mgr.varCount(); v < d.varNames.size(); ++v) {
    mgr.newVar(d.varNames[v]);
  }
  // Restoring the saved order only makes sense when the manager holds
  // exactly the file's variables; when loading into a larger manager the
  // saved permutation is partial, so we keep the manager's current order
  // (ITE re-canonicalizes the nodes either way).
  if (mgr.varCount() == d.level2var.size()) applyVarOrder(mgr, d.level2var);

  std::vector<Edge> loaded;
  std::vector<Bdd> keepAlive;  // protect intermediates across autoGc
  loaded.reserve(d.nodes.size());
  for (const DumpRecords::Node& node : d.nodes) {
    // Rebuild with ITE rather than mk: the file may have been written under
    // a different (e.g. sifted) variable order, in which case raw mk would
    // create ill-ordered nodes; ITE re-canonicalizes for this manager.
    const Edge e = mgr.iteE(mgr.varEdge(node.var), edgeOfRef(node.hi, loaded),
                            edgeOfRef(node.lo, loaded));
    loaded.push_back(e);
    keepAlive.emplace_back(&mgr, e);
  }

  std::vector<Bdd> roots;
  roots.reserve(d.roots.size());
  for (const std::uint32_t ref : d.roots) {
    roots.emplace_back(&mgr, edgeOfRef(ref, loaded));
  }
  return roots;
}

void applyVarOrder(BddManager& mgr, std::span<const unsigned> level2var) {
  if (level2var.size() != mgr.varCount()) {
    throw BddUsageError("applyVarOrder: order length != varCount");
  }
  if (!isPermutation(level2var)) {
    throw BddUsageError("applyVarOrder: not a permutation of the variables");
  }
  const unsigned n = mgr.varCount();
  // Selection sort by adjacent swaps: for each target level top-down, bubble
  // the wanted variable up from wherever it currently sits.  O(n^2) swaps
  // worst case, fine for the var counts we serialize.
  for (unsigned level = 0; level < n; ++level) {
    const unsigned want = level2var[level];
    unsigned at = mgr.varLevel(want);
    while (at > level) {
      mgr.swapAdjacentLevels(at - 1);
      --at;
    }
  }
}

}  // namespace icb
