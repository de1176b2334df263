// Test-only surgical access to the private state of BddManager and
// PairTable, used by the mutation tests (tests/check_test.cpp) to break one
// invariant at a time and assert the matching checker diagnostic.
//
// NOTHING outside tests and the checker test-bench may include this header:
// every method here violates the package's invariants on purpose.  A manager
// operated on by a surgeon is only good for being diagnosed afterwards.
#pragma once

#include <algorithm>

#include "bdd/manager.hpp"
#include "ici/pair_table.hpp"

namespace icb {

class NodeSurgeon {
 public:
  static std::uint32_t nodeCount(const BddManager& mgr) {
    return static_cast<std::uint32_t>(mgr.store_.size());
  }

  static unsigned rawVar(const BddManager& mgr, std::uint32_t index) {
    return mgr.store_.varOf(index);
  }
  static bool isFree(const BddManager& mgr, std::uint32_t index) {
    return mgr.store_.isFree(index);
  }
  static Edge rawHi(const BddManager& mgr, std::uint32_t index) {
    return mgr.store_.hiOf(index);
  }
  static Edge rawLo(const BddManager& mgr, std::uint32_t index) {
    return mgr.store_.loOf(index);
  }

  /// Overwrites a node's function fields, bypassing mk() and the unique
  /// table entirely.
  static void setNodeFields(BddManager& mgr, std::uint32_t index, unsigned var,
                            Edge hi, Edge lo) {
    mgr.store_.setFields(index, var, hi, lo);
  }

  /// Sets the complement bit on a stored then-arc.
  static void complementThenArc(BddManager& mgr, std::uint32_t index) {
    mgr.store_.setHi(index, edgeNot(mgr.store_.hiOf(index)));
  }

  /// Forces a node's external reference count.
  static void setRef(BddManager& mgr, std::uint32_t index, std::uint32_t ref) {
    mgr.store_.setRef(index, ref);
  }

  /// Reads a node's external reference count (0 when absent from the side
  /// table).
  static std::uint32_t refOf(const BddManager& mgr, std::uint32_t index) {
    return mgr.store_.refOf(index);
  }

  /// Unlinks a node from its unique-table chain without freeing it (the
  /// node stays live but becomes unfindable -- a rehash-completeness hole).
  static bool detachFromUniqueTable(BddManager& mgr, std::uint32_t index) {
    return mgr.store_.unlinkFromBucket(index);
  }

  /// Moves a live node's chain entry into another variable's subtable while
  /// the node keeps its own variable (a wrong-subtable hole: the node is
  /// chained where no lookup of its triple looks).
  static bool relinkIntoSubtable(BddManager& mgr, std::uint32_t index,
                                 unsigned var) {
    NodeStore& store = mgr.store_;
    if (!store.unlinkFromBucket(index)) return false;
    const unsigned own = store.varOf(index);
    store.setFields(index, var, store.hiOf(index), store.loOf(index));
    store.linkIntoBucket(index);
    store.setFields(index, own, store.hiOf(index), store.loOf(index));
    return true;
  }

  /// Lists the nodes chained in var's unique subtable, in index order.
  static std::vector<std::uint32_t> subtableMembers(const BddManager& mgr,
                                                    unsigned var) {
    const NodeStore& store = mgr.store_;
    std::vector<std::uint32_t> members;
    for (std::size_t b = 0; b < store.bucketCount(var); ++b) {
      for (std::uint32_t i = store.bucketHead(var, b); i != BddManager::kNil;
           i = store.nextOf(i)) {
        members.push_back(i);
      }
    }
    std::sort(members.begin(), members.end());
    return members;
  }

  /// Desynchronizes the free-list counter from the actual chain.
  static void bumpFreeCount(BddManager& mgr, std::uint64_t delta) {
    mgr.store_.bumpFreeCount(delta);
  }

  /// Repoints a projection edge at an arbitrary edge.
  static void setVarEdge(BddManager& mgr, unsigned var, Edge e) {
    mgr.varEdges_[var] = e;
  }

  /// Lowers the node-index cap so tests can trip the 27-bit index-space
  /// guard without allocating anywhere near 2^27 nodes.
  static void capNodeIndexSpace(BddManager& mgr, std::uint32_t cap) {
    mgr.store_.setIndexCapForTesting(cap);
  }

  /// Drops an edge's external reference through the manager's checked path,
  /// outside any Bdd destructor -- so an underflow CheckFailure propagates
  /// instead of terminating.
  static void derefEdge(BddManager& mgr, Edge e) { mgr.deref(e); }

  /// Flips the result of the first valid computed-cache entry found.
  /// Returns false when the cache is empty.
  static bool corruptFirstCacheEntry(BddManager& mgr) {
    for (std::size_t slot = 0; slot < mgr.cache_.size(); ++slot) {
      BddManager::CacheEntry entry = mgr.cache_.entryAt(slot);
      if (static_cast<BddManager::Op>(entry.op) != BddManager::Op::kInvalid) {
        entry.result = edgeNot(entry.result);
        mgr.cache_.setEntryAt(slot, entry);
        return true;
      }
    }
    return false;
  }

  /// Plants a cache entry whose operand points outside the arena.
  static void plantDanglingCacheEntry(BddManager& mgr) {
    BddManager::CacheEntry entry;
    entry.op = static_cast<std::uint32_t>(BddManager::Op::kAnd);
    entry.f =
        makeEdge(static_cast<std::uint32_t>(mgr.store_.size()) + 7, false);
    entry.g = kTrueEdge;
    entry.result = kTrueEdge;
    mgr.cache_.setEntryAt(0, entry);
  }
};

class PairTableSurgeon {
 public:
  /// Replaces the stored conjunction P_ij with an arbitrary BDD.
  static void replaceEntry(PairTable& table, std::size_t i, std::size_t j,
                           Bdd wrong) {
    PairTable::Entry& entry = table.table_[i][j];
    entry.conjunction = std::move(wrong);
  }

  /// Corrupts the cached size column of entry (i, j).
  static void corruptEntrySize(PairTable& table, std::size_t i, std::size_t j,
                               std::uint64_t size) {
    table.table_[i][j].size = size;
  }

  /// Corrupts the cached size of conjunct i.
  static void corruptConjunctSize(PairTable& table, std::size_t i,
                                  std::uint64_t size) {
    table.sizes_[i] = size;
  }
};

}  // namespace icb
