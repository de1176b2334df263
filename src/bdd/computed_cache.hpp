// ComputedCache: the manager's lossy operation cache.
//
// A direct-mapped table (like ABC's vCache/CacheMask) with each entry spread
// over three 64-bit words:
//
//   key word a   bits 0..31  f        bits 32..63  g
//   key word b   bits 0..31  h        bits 32..39  op
//   result word  bits 0..31  result
//
// A probe compares the full key words, so a false positive is impossible;
// an insert always overwrites its slot.  The slot count and the hash decide
// which entries evict each other, and with them the hit/miss counts in every
// trace, stats, and bench line: change either only deliberately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

  explicit ComputedCache(std::size_t entries) : slots_(entries) {}

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Slot of a key at the current table size (a power of two): two mix64
  /// rounds over the packed key.
  [[nodiscard]] std::size_t slotOf(std::uint32_t op, Edge f, Edge g,
                                   Edge h) const {
    const std::uint64_t k1 =
        (static_cast<std::uint64_t>(f) << 32) | static_cast<std::uint64_t>(g);
    const std::uint64_t k2 = (static_cast<std::uint64_t>(h) << 8) |
                             static_cast<std::uint64_t>(op);
    return (mix64(k1) ^ mix64(k2 * 0x9E3779B97F4A7C15ull)) &
           (slots_.size() - 1);
  }

  /// Probe.  Returns true and stores the result on an exact key hit.
  bool lookup(std::uint32_t op, Edge f, Edge g, Edge h, Edge* out) const {
    const Slot& s = slots_[slotOf(op, f, g, h)];
    if (s.a != packA(f, g) || s.b != packB(h, op)) return false;
    *out = static_cast<Edge>(s.result);
    return true;
  }

  /// Stores an entry, overwriting whatever held its slot.
  void insert(std::uint32_t op, Edge f, Edge g, Edge h, Edge result) {
    Slot& s = slots_[slotOf(op, f, g, h)];
    s.a = packA(f, g);
    s.b = packB(h, op);
    s.result = result;
  }

  // ---- slot-level surface (auditor, GC sweep, surgeon, resize) ------------

  [[nodiscard]] Entry entryAt(std::size_t slot) const {
    const Slot& s = slots_[slot];
    Entry e;
    e.f = static_cast<Edge>(s.a & 0xFFFFFFFFull);
    e.g = static_cast<Edge>(s.a >> 32);
    e.h = static_cast<Edge>(s.b & 0xFFFFFFFFull);
    e.op = static_cast<std::uint32_t>((s.b >> 32) & 0xFFull);
    e.result = static_cast<Edge>(s.result);
    return e;
  }

  void setEntryAt(std::size_t slot, const Entry& e) {
    Slot& s = slots_[slot];
    s.a = packA(e.f, e.g);
    s.b = packB(e.h, e.op);
    s.result = e.result;
  }

  void clearAt(std::size_t slot) { slots_[slot] = Slot{}; }

  /// Doubles the table in place.  slotOf masks the hash with size-1, so an
  /// entry at slot s belongs at s or s+n and no two entries collide: one
  /// pass moves each, giving the layout of decoding and re-inserting all.
  void grow() {
    const std::size_t n = slots_.size();
    slots_.resize(2 * n);
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
    std::uint64_t a = 0;       ///< f | g<<32
    std::uint64_t b = 0;       ///< h | op<<32
    std::uint64_t result = 0;  ///< result edge in the low 32 bits
  };
  static_assert(sizeof(Slot) == 24, "three words per cache entry");

  static std::uint64_t packA(Edge f, Edge g) {
    return static_cast<std::uint64_t>(f) |
           (static_cast<std::uint64_t>(g) << 32);
  }
  static std::uint64_t packB(Edge h, std::uint32_t op) {
    return static_cast<std::uint64_t>(h) |
           (static_cast<std::uint64_t>(op & 0xFFu) << 32);
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

  std::vector<Slot> slots_;
};

}  // namespace icb
