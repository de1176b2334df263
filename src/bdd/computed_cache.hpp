// ComputedCache: the manager's lossy operation cache.
//
// A direct-mapped table (like ABC's vCache/CacheMask) with each entry packed
// into two 64-bit words:
//
//   key word  bits 0..31  f       bits 32..63  g
//   tail word bits 0..27  h       bits 28..31  op     bits 32..63  result
//
// h fits 28 bits because NodeStore::kMaxIndex keeps every edge below 2^28,
// and op 4 bits (both static_asserted in manager.hpp).  A probe compares the
// key word and the tail's low half, so a false positive is impossible; an
// insert always overwrites its slot.  The slot count and the hash decide
// which entries evict each other, and with them the hit/miss counts in every
// trace, stats, and bench line: change either only deliberately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bdd/edge.hpp"

namespace icb {

class ComputedCache {
 public:
  /// One decoded entry, the shape consumers (cache auditor, GC sweep, the
  /// surgeon hooks) traffic in.  `op` is the manager's BddOp as a raw
  /// integer so this header does not depend on manager.hpp.
  struct Entry {
    Edge f = 0, g = 0, h = 0;
    std::uint32_t op = 0;  ///< 0 == BddOp::kInvalid == empty slot
    Edge result = 0;
  };

  static constexpr Edge kMaxH = (Edge{1} << 28) - 1;  ///< widest h edge
  static constexpr std::uint32_t kMaxOp = 15;         ///< widest op tag
  static constexpr std::size_t kSlotBytes = 16;       ///< bytes per entry

  /// One zeroed calloc block: an all-zero slot is empty (op 0).
  explicit ComputedCache(std::size_t entries)
      : slots_(static_cast<Slot*>(std::calloc(entries, sizeof(Slot)))),
        size_(entries) {
    if (slots_ == nullptr) throw std::bad_alloc();
  }
  ~ComputedCache() { std::free(slots_); }
  ComputedCache(const ComputedCache&) = delete;
  ComputedCache& operator=(const ComputedCache&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Slot of a key at the current table size (a power of two): two mix64
  /// rounds over the packed key.
  [[nodiscard]] std::size_t slotOf(std::uint32_t op, Edge f, Edge g,
                                   Edge h) const {
    const std::uint64_t k1 =
        (static_cast<std::uint64_t>(f) << 32) | static_cast<std::uint64_t>(g);
    const std::uint64_t k2 = (static_cast<std::uint64_t>(h) << 8) |
                             static_cast<std::uint64_t>(op);
    return (mix64(k1) ^ mix64(k2 * 0x9E3779B97F4A7C15ull)) & (size_ - 1);
  }

  /// Probe.  Returns true and stores the result on an exact key hit.
  bool lookup(std::uint32_t op, Edge f, Edge g, Edge h, Edge* out) const {
    const Slot& s = slots_[slotOf(op, f, g, h)];
    if (s.key != packKey(f, g) ||
        static_cast<std::uint32_t>(s.tail) != packTag(h, op)) {
      return false;
    }
    *out = static_cast<Edge>(s.tail >> 32);
    return true;
  }

  /// Stores an entry, overwriting whatever held its slot.
  void insert(std::uint32_t op, Edge f, Edge g, Edge h, Edge result) {
    slots_[slotOf(op, f, g, h)] = pack(op, f, g, h, result);
  }

  // ---- slot-level surface (auditor, GC sweep, surgeon, resize) ------------

  [[nodiscard]] Entry entryAt(std::size_t slot) const {
    const Slot& s = slots_[slot];
    return Entry{static_cast<Edge>(s.key), static_cast<Edge>(s.key >> 32),
                 static_cast<Edge>(s.tail) & kMaxH,
                 static_cast<std::uint32_t>(s.tail >> 28) & kMaxOp,
                 static_cast<Edge>(s.tail >> 32)};
  }

  void setEntryAt(std::size_t slot, const Entry& e) {
    slots_[slot] = pack(e.op, e.f, e.g, e.h, e.result);
  }

  void clearAt(std::size_t slot) { slots_[slot] = Slot{}; }

  /// Doubles the table in place: realloc extends the block (large blocks
  /// are remapped, not copied), so the old and the new table are never held
  /// at once, and the new half is zeroed.  slotOf masks the hash with
  /// size-1, so an entry at slot s belongs at s or s+n and no two entries
  /// collide: one pass moves each, giving the layout of re-inserting all.
  void grow() {
    const std::size_t n = size_;
    void* grown = std::realloc(slots_, 2 * n * sizeof(Slot));
    if (grown == nullptr) throw std::bad_alloc();
    slots_ = static_cast<Slot*>(grown);
    std::memset(slots_ + n, 0, n * sizeof(Slot));
    size_ = 2 * n;
    for (std::size_t slot = 0; slot < n; ++slot) {
      const Entry e = entryAt(slot);
      if (e.op == 0) continue;
      const std::size_t to = slotOf(e.op, e.f, e.g, e.h);
      if (to == slot) continue;
      slots_[to] = slots_[slot];
      slots_[slot] = Slot{};
    }
  }

 private:
  struct Slot {
    std::uint64_t key;   ///< f | g<<32
    std::uint64_t tail;  ///< h | op<<28 | result<<32
  };
  static_assert(sizeof(Slot) == kSlotBytes, "two words per cache entry");

  static std::uint64_t packKey(Edge f, Edge g) {
    return static_cast<std::uint64_t>(f) |
           (static_cast<std::uint64_t>(g) << 32);
  }
  static std::uint32_t packTag(Edge h, std::uint32_t op) {
    return h | ((op & kMaxOp) << 28);
  }
  static Slot pack(std::uint32_t op, Edge f, Edge g, Edge h, Edge result) {
    return Slot{packKey(f, g), packTag(h, op) |
                                   (static_cast<std::uint64_t>(result) << 32)};
  }

  /// 64-bit mix (Murmur3 finalizer).
  static std::uint64_t mix64(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
  }

  Slot* slots_;
  std::size_t size_;
};

}  // namespace icb
