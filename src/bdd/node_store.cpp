#include "bdd/node_store.hpp"

#include <algorithm>

namespace icb {

namespace {

/// 64-bit mix (Murmur3 finalizer); good avalanche for table hashing.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

NodeStore::NodeStore(std::size_t initialCapacity) {
  chunks_.reserve((initialCapacity + kChunkMask) >> kChunkShift);
  // Node 0: the terminal.  Its var is kTermVar so it never matches a
  // variable; it is never on a hash chain; its reference is pinned.
  PackedNode& terminal = append();
  packFields(terminal, kTermVar, kTrueEdge, kTrueEdge);
  packNext(terminal, kNil);
  refs_.emplace(0u, kMaxRef);
}

PackedNode& NodeStore::append() {
  if (size_ == chunks_.size() << kChunkShift) {
    // make_unique<T[]> value-initializes, so a fresh chunk reads as all
    // zero.
    chunks_.emplace_back();
    chunks_.back() = std::make_unique<PackedNode[]>(kChunkRecords);
  }
  return at(static_cast<std::uint32_t>(size_++));
}

std::size_t NodeStore::hashOf(unsigned var, Edge hi, Edge lo) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo);
  return mix64(key) & (subtables_[var].heads.size() - 1);
}

std::uint32_t NodeStore::find(unsigned var, Edge hi, Edge lo,
                              std::uint64_t* chainSteps) const {
  if (var >= subtables_.size()) return kNil;
  for (std::uint32_t i = subtables_[var].heads[hashOf(var, hi, lo)];
       i != kNil; i = unpackNext(at(i))) {
    ++*chainSteps;
    const PackedNode& n = at(i);
    if (unpackHi(n) == hi && unpackLo(n) == lo) return i;
  }
  return kNil;
}

std::uint32_t NodeStore::allocate(unsigned var, Edge hi, Edge lo) {
  std::uint32_t index;
  if (freeHead_ != kNil) {
    index = freeHead_;
    freeHead_ = unpackNext(at(index));
    --freeCount_;
  } else {
    // The cap check runs BEFORE the arena grows: on a throw nothing has
    // changed, so the caller's manager remains fully usable.  kMaxIndex
    // (2^27 - 1) keeps every fresh edge encodable in a cache entry's 28-bit
    // h field and every index below the null link.
    if (size_ > indexCap_) {
      throw ResourceLimitError(ResourceKind::kNodeIndexSpace);
    }
    index = static_cast<std::uint32_t>(size_);
    append();
  }
  packFields(at(index), var, hi, lo);
  linkIntoBucket(index);
  return index;
}

void NodeStore::rebuildSubtables() {
  for (Subtable& t : subtables_) {
    std::fill(t.heads.begin(), t.heads.end(), kNil);
    t.count = 0;
  }
  for (std::uint32_t i = 1; i < size_; ++i) {
    // Free-listed nodes (kFreeVar) own no subtable.
    if (unpackVar(at(i)) < subtables_.size()) linkIntoBucket(i);
  }
}

void NodeStore::resize(unsigned var, std::size_t heads) {
  // Relink the chains, never scan the arena: a node unlinked mid-swap is on
  // no chain and keeps its stale triple untouched.
  std::vector<std::uint32_t> old(heads, kNil);
  old.swap(subtables_[var].heads);
  for (std::uint32_t j : old) {
    while (j != kNil) {
      PackedNode& m = at(j);
      const std::uint32_t next = unpackNext(m);
      std::uint32_t& slot =
          subtables_[var].heads[hashOf(var, unpackHi(m), unpackLo(m))];
      packNext(m, slot);
      slot = j;
      j = next;
    }
  }
}

void NodeStore::collectSubtable(unsigned var,
                                std::vector<std::uint32_t>& out) {
  // Only walks shrink: a run that never sifts never regrows the subtables
  // its collections emptied.
  const std::uint64_t count = subtables_[var].count;
  std::size_t size = subtables_[var].heads.size();
  while (size > kMinSubtableHeads && count * 4 < size) size /= 2;
  if (size != subtables_[var].heads.size()) resize(var, size);
  const std::vector<std::uint32_t>& heads = subtables_[var].heads;
  const std::size_t base = out.size();
  out.resize(base + heads.size());
  // Chain heads first, compacted without a branch: about half the heads are
  // empty, and a per-head branch mispredicts on every other one.
  std::size_t k = base;
  for (const std::uint32_t h : heads) {
    out[k] = h;
    k += h != kNil ? 1 : 0;
  }
  out.resize(k);
  for (std::size_t j = base; j < k; ++j) {
    for (std::uint32_t i = unpackNext(at(out[j])); i != kNil;
         i = unpackNext(at(i))) {
      out.push_back(i);
    }
  }
}

void NodeStore::linkIntoBucket(std::uint32_t i) {
  PackedNode& n = at(i);
  const unsigned var = unpackVar(n);
  if (var >= subtables_.size()) {
    subtables_.resize(
        var + 1, Subtable{std::vector<std::uint32_t>(kMinSubtableHeads, kNil)});
  }
  Subtable& t = subtables_[var];
  std::uint32_t& head = t.heads[hashOf(var, unpackHi(n), unpackLo(n))];
  packNext(n, head);
  head = i;
  if (++t.count > t.heads.size()) resize(var, t.heads.size() * 2);
}

bool NodeStore::unlinkFromBucket(std::uint32_t i) {
  const PackedNode& n = at(i);
  const unsigned var = unpackVar(n);
  if (var >= subtables_.size()) return false;
  std::uint32_t& head =
      subtables_[var].heads[hashOf(var, unpackHi(n), unpackLo(n))];
  if (head == i) {
    head = unpackNext(n);
  } else {
    std::uint32_t cur = head;
    while (cur != kNil && unpackNext(at(cur)) != i) cur = unpackNext(at(cur));
    if (cur == kNil) return false;
    packNext(at(cur), unpackNext(n));
  }
  --subtables_[var].count;
  return true;
}

}  // namespace icb
