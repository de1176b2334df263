#include "bdd/node_store.hpp"

#include <bit>

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
  buckets_.assign(std::bit_ceil<std::size_t>(initialCapacity), kNil);
  refs_.emplace(0u, kMaxRef);
}

PackedNode& NodeStore::append() {
  if (size_ == chunks_.size() << kChunkShift) {
    // The table grows before the chunk is allocated: the other order leaves
    // each freed table between chunks, and measured ~3% higher peak RSS on
    // the FIFO-10 checkpoint/resume cells.  make_unique<T[]> value-
    // initializes, so a fresh chunk reads as all zero.
    chunks_.emplace_back();
    chunks_.back() = std::make_unique<PackedNode[]>(kChunkRecords);
  }
  return at(static_cast<std::uint32_t>(size_++));
}

std::size_t NodeStore::hashOf(unsigned var, Edge hi, Edge lo) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(var) << 40) ^
      (static_cast<std::uint64_t>(hi) << 20) ^ static_cast<std::uint64_t>(lo);
  return mix64(key) & (buckets_.size() - 1);
}

std::uint32_t NodeStore::find(unsigned var, Edge hi, Edge lo,
                              std::uint64_t* chainSteps) const {
  for (std::uint32_t i = buckets_[hashOf(var, hi, lo)]; i != kNil;
       i = unpackNext(at(i))) {
    ++*chainSteps;
    const PackedNode& n = at(i);
    if (unpackVar(n) == var && unpackHi(n) == hi && unpackLo(n) == lo) {
      return i;
    }
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
    // (== kNil - 1) keeps every fresh index encodable in Edge's 31-bit
    // index field and distinct from the null link -- a wrapped makeEdge()
    // is structurally impossible, not merely checked.
    if (size_ > indexCap_) {
      throw ResourceLimitError(ResourceKind::kNodeIndexSpace);
    }
    index = static_cast<std::uint32_t>(size_);
    append();
  }
  PackedNode& n = at(index);
  packFields(n, var, hi, lo);
  const std::size_t slot = hashOf(var, hi, lo);
  packNext(n, buckets_[slot]);
  buckets_[slot] = index;
  return index;
}

void NodeStore::rehash(std::size_t newBucketCount) {
  buckets_.assign(newBucketCount, kNil);
  for (std::uint32_t i = 1; i < size_; ++i) {
    PackedNode& n = at(i);
    if (unpackVar(n) == kFreeVar) continue;  // free-listed node
    const std::size_t slot = hashOf(unpackVar(n), unpackHi(n), unpackLo(n));
    packNext(n, buckets_[slot]);
    buckets_[slot] = i;
  }
}

void NodeStore::linkIntoBucket(std::uint32_t i) {
  PackedNode& n = at(i);
  const std::size_t slot = hashOf(unpackVar(n), unpackHi(n), unpackLo(n));
  packNext(n, buckets_[slot]);
  buckets_[slot] = i;
}

bool NodeStore::unlinkFromBucket(std::uint32_t i) {
  const std::uint32_t after = unpackNext(at(i));
  const PackedNode& n = at(i);
  const std::size_t slot = hashOf(unpackVar(n), unpackHi(n), unpackLo(n));
  std::uint32_t cur = buckets_[slot];
  if (cur == i) {
    buckets_[slot] = after;
    return true;
  }
  while (cur != kNil) {
    const std::uint32_t next = unpackNext(at(cur));
    if (next == i) {
      packNext(at(cur), after);
      return true;
    }
    cur = next;
  }
  return false;
}

}  // namespace icb
