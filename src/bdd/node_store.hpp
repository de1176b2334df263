// NodeStore: the node arena, unique table, free list, and external
// refcounts of BddManager, implemented over a packed 16-byte node.
//
// The store is serial and in-RAM: one manager, one thread.  The arena is an
// array of fixed 1024-record chunks reached as chunks_[i >> 10][i & 1023];
// chunks are allocated on growth and never moved or freed, so growing never
// copies the arena and never holds two copies of it at once.  Pulling the
// state behind one class lets the node representation change without
// touching the algorithms above it.
//
// The packed layout follows the two-u64-word idiom of distbdd-spin17's
// bddnode.h (42-bit index / 20-bit level packing there), adapted to this
// package's 32-bit Edge (31-bit index + complement bit):
//
//   word0  bits 0..31   hi edge (then-arc; plain in a canonical arena, but
//                       the full 32 bits are stored so corruption tests can
//                       represent a complemented then-arc)
//          bits 32..62  unique-table chain / free-list link (31-bit index,
//                       kNil terminated) -- the chain pointer that used to
//                       be a separate word rides in the spare bits
//          bit  63      spare
//   word1  bits 0..31   lo edge (else-arc, may be complemented)
//          bits 32..51  variable index (20 bits; kFreeVar marks free-listed
//                       nodes, kTermVar the terminal)
//          bits 52..63  spare
//
// External (handle) reference counts live OUTSIDE the node, in a sparse
// side table keyed by node index: at any moment only the handful of nodes
// under a live Bdd handle carry a count, so a hash map beats a 4-byte field
// paid by every node.  Absent means zero; the terminal is pinned at kMaxRef
// for the store's lifetime.  docs/node_layout.md is the full contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bdd/edge.hpp"
#include "bdd/options.hpp"

namespace icb {

/// One BDD node in two 64-bit words.  The words are private: every consumer
/// goes through NodeStore's field accessors, so the packing can change
/// without touching callers.
struct PackedNode {
 private:
  friend class NodeStore;
  std::uint64_t word0 = 0;
  std::uint64_t word1 = 0;
};

static_assert(sizeof(PackedNode) == 16,
              "PackedNode must stay two machine words -- the bytes-per-node "
              "reduction is the point of the packed layout");

class NodeStore {
 public:
  static constexpr unsigned kVarBits = 20;
  /// Sentinel variable of free-listed nodes (all-ones in the var field).
  static constexpr unsigned kFreeVar = (1u << kVarBits) - 1;
  /// Variable of the terminal node; never matches a real variable.
  static constexpr unsigned kTermVar = kFreeVar - 1;
  /// Largest real variable index a node can carry.
  static constexpr unsigned kMaxVar = kTermVar - 1;
  /// Null link of the unique-table chains and the free list.
  static constexpr std::uint32_t kNil = 0x7FFFFFFFu;
  /// Largest allocatable node index: 2^27 - 1 (134 M nodes), so every edge
  /// fits the computed cache's 28-bit h field, and a fresh index can never
  /// reach the null link.  allocate() enforces it unconditionally.
  static constexpr std::uint32_t kMaxIndex = (1u << 27) - 1;
  /// Saturating reference count (terminal and projection pins park here).
  static constexpr std::uint32_t kMaxRef =
      std::numeric_limits<std::uint32_t>::max();
  /// log2 records per arena chunk: 1024 records, 16 KiB.
  static constexpr unsigned kChunkShift = 10;
  static constexpr std::size_t kChunkRecords = std::size_t{1} << kChunkShift;

  explicit NodeStore(std::size_t initialCapacity);

  // ---- arena ---------------------------------------------------------------

  /// Arena extent: allocated + free-listed nodes + the terminal.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Nodes currently allocated (live + dead-awaiting-GC).
  [[nodiscard]] std::uint64_t allocated() const { return size_ - freeCount_; }

  [[nodiscard]] std::uint64_t freeCount() const { return freeCount_; }

  // ---- packed-field accessors ----------------------------------------------

  [[nodiscard]] unsigned varOf(std::uint32_t i) const {
    return unpackVar(at(i));
  }
  [[nodiscard]] Edge hiOf(std::uint32_t i) const {
    return unpackHi(at(i));
  }
  [[nodiscard]] Edge loOf(std::uint32_t i) const {
    return unpackLo(at(i));
  }
  [[nodiscard]] std::uint32_t nextOf(std::uint32_t i) const {
    return unpackNext(at(i));
  }
  [[nodiscard]] bool isFree(std::uint32_t i) const {
    return unpackVar(at(i)) == kFreeVar;
  }

  /// Rewrites a node's function fields in place, keeping its chain link.
  /// Reordering (and the corruption hooks) mutate nodes this way; ordinary
  /// construction goes through allocate().
  void setFields(std::uint32_t i, unsigned var, Edge hi, Edge lo) {
    packFields(at(i), var, hi, lo);
  }
  void setHi(std::uint32_t i, Edge hi) { packHi(at(i), hi); }

  // ---- unique table: one chained hash subtable per variable ----------------
  // A variable's subtable chains exactly the allocated nodes carrying it:
  // the nodes at a level are its variable's subtable.

  /// Variables that own a subtable (every variable a node was allocated for).
  [[nodiscard]] std::size_t subtableCount() const { return subtables_.size(); }

  /// Head count of var's subtable (a power of two), and the head of its
  /// bucket b (kNil when empty): the structural checker walks chains
  /// through these; lookups use find().
  [[nodiscard]] std::size_t bucketCount(unsigned var) const {
    return subtables_[var].heads.size();
  }
  [[nodiscard]] std::uint32_t bucketHead(unsigned var, std::size_t b) const {
    return subtables_[var].heads[b];
  }

  /// Nodes chained in var's subtable.
  [[nodiscard]] std::uint64_t subtableSize(unsigned var) const {
    return subtables_[var].count;
  }

  /// Appends every node chained in var's subtable to `out` (chain order),
  /// first halving the subtable while it holds under a quarter node per
  /// head, so walking a level costs O(level population).
  void collectSubtable(unsigned var, std::vector<std::uint32_t>& out);

  /// Bucket of (hi, lo) in var's subtable.
  [[nodiscard]] std::size_t hashOf(unsigned var, Edge hi, Edge lo) const;

  /// Hash-consing probe: the index of the node carrying the triple, or
  /// kNil.  Chain nodes visited are added to *chainSteps (stats hook).
  [[nodiscard]] std::uint32_t find(unsigned var, Edge hi, Edge lo,
                                   std::uint64_t* chainSteps) const;

  /// True when the next allocate() must extend the arena (free list empty).
  [[nodiscard]] bool wouldGrow() const { return freeHead_ == kNil; }

  /// Allocates a node carrying (var, hi, lo) -- from the free list when
  /// possible, else by extending the arena -- and links it into var's
  /// subtable.  Throws ResourceLimitError(kNodeIndexSpace) before any state
  /// changes when a fresh index would exceed the index cap, so the store
  /// stays fully usable after the throw.
  std::uint32_t allocate(unsigned var, Edge hi, Edge lo);

  /// Rebuilds every subtable's chains in one index-order pass over the
  /// arena, skipping free-listed nodes (GC's sweep calls this).
  void rebuildSubtables();

  /// Links node i into the subtable of its current var (front insertion),
  /// doubling the subtable once its count passes its head count.
  void linkIntoBucket(std::uint32_t i);

  /// Unlinks node i from its subtable's chain.  Returns false when the node
  /// is not on it (completeness hole -- the caller decides how loud to be).
  [[nodiscard]] bool unlinkFromBucket(std::uint32_t i);

  // ---- free list -----------------------------------------------------------

  /// Drops the whole free list (GC rebuilds it during the sweep).
  void resetFreeList() {
    freeHead_ = kNil;
    freeCount_ = 0;
  }

  /// Marks node i free and pushes it onto the free list.
  void pushFree(std::uint32_t i) {
    packFields(at(i), kFreeVar, 0, 0);
    packNext(at(i), freeHead_);
    freeHead_ = i;
    ++freeCount_;
  }

  [[nodiscard]] std::uint32_t freeHead() const { return freeHead_; }

  /// Test hook (NodeSurgeon): desynchronizes the free-list counter.
  void bumpFreeCount(std::uint64_t delta) { freeCount_ += delta; }

  // ---- external reference counts (sparse side table) -----------------------

  /// Bumps the count (saturating at kMaxRef).
  void ref(std::uint32_t i) {
    std::uint32_t& r = refs_[i];
    if (r != kMaxRef) ++r;
  }

  /// Drops the count; entries erase at zero so the table stays sparse.
  /// Returns true when the count was already zero -- an underflow the
  /// caller must report (a double release is a real bug, see
  /// BddManager::deref).
  bool deref(std::uint32_t i) {
    const auto it = refs_.find(i);
    if (it == refs_.end()) return true;
    if (it->second != kMaxRef && --it->second == 0) refs_.erase(it);
    return false;
  }

  [[nodiscard]] std::uint32_t refOf(std::uint32_t i) const {
    const auto it = refs_.find(i);
    return it == refs_.end() ? 0 : it->second;
  }

  /// Forces a count (test hook; also used by GC-root surgery).  Zero erases.
  void setRef(std::uint32_t i, std::uint32_t r) {
    if (r == 0) {
      refs_.erase(i);
    } else {
      refs_[i] = r;
    }
  }

  /// The root set: every (index, count) pair with a nonzero count.  GC and
  /// the structural checker iterate this instead of scanning the arena.
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::uint32_t>& refs()
      const {
    return refs_;
  }

  // ---- index-space cap -----------------------------------------------------

  /// Lowers the allocation cap below kMaxIndex so tests can drive the
  /// index-space guard without building 2^27 nodes.
  void setIndexCapForTesting(std::uint32_t cap) { indexCap_ = cap; }

 private:
  // The packing lives in these private helpers only: public surfaces (this
  // class's accessors included) speak (var, hi, lo, next), never words.
  static constexpr unsigned kNextShift = 32;
  static constexpr unsigned kVarShift = 32;
  static constexpr std::uint64_t kEdgeMask = 0xFFFFFFFFull;
  static constexpr std::uint64_t kNextMask = 0x7FFFFFFFull;
  static constexpr std::uint64_t kVarMask = (1ull << kVarBits) - 1;
  static constexpr std::size_t kChunkMask = kChunkRecords - 1;

  static unsigned unpackVar(const PackedNode& n) {
    return static_cast<unsigned>((n.word1 >> kVarShift) & kVarMask);
  }
  static Edge unpackHi(const PackedNode& n) {
    return static_cast<Edge>(n.word0 & kEdgeMask);
  }
  static Edge unpackLo(const PackedNode& n) {
    return static_cast<Edge>(n.word1 & kEdgeMask);
  }
  static std::uint32_t unpackNext(const PackedNode& n) {
    return static_cast<std::uint32_t>((n.word0 >> kNextShift) & kNextMask);
  }
  static void packFields(PackedNode& n, unsigned var, Edge hi, Edge lo) {
    n.word0 = (n.word0 & ~kEdgeMask) | static_cast<std::uint64_t>(hi);
    n.word1 = (static_cast<std::uint64_t>(var & kVarMask) << kVarShift) |
              static_cast<std::uint64_t>(lo);
  }
  static void packHi(PackedNode& n, Edge hi) {
    n.word0 = (n.word0 & ~kEdgeMask) | static_cast<std::uint64_t>(hi);
  }
  static void packNext(PackedNode& n, std::uint32_t next) {
    n.word0 = (n.word0 & ~(kNextMask << kNextShift)) |
              (static_cast<std::uint64_t>(next & kNextMask) << kNextShift);
  }

  PackedNode& at(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }
  const PackedNode& at(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  /// Appends one zeroed record at index size_, adding a chunk when the
  /// last one is full.
  PackedNode& append();

  struct Subtable {
    std::vector<std::uint32_t> heads;  ///< chain heads, a power of two
    std::uint64_t count = 0;           ///< nodes chained
  };
  static constexpr std::size_t kMinSubtableHeads = 16;  ///< fresh subtable

  /// Rehashes var's chains into `heads` heads (a power of two).
  void resize(unsigned var, std::size_t heads);

  std::vector<std::unique_ptr<PackedNode[]>> chunks_;
  std::size_t size_ = 0;  ///< records in use across the chunks
  std::vector<Subtable> subtables_;  ///< unique table, indexed by var
  std::uint32_t freeHead_ = kNil;
  std::uint64_t freeCount_ = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> refs_;
  std::uint32_t indexCap_ = kMaxIndex;
};

}  // namespace icb
