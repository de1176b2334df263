// Configuration and resource-limit types for the BDD manager.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/timer.hpp"

namespace icb {

/// Tuning knobs for a BddManager.  The defaults are sized for the paper's
/// laptop-scale experiments.
struct BddOptions {
  /// Initial node-arena capacity (number of nodes reserved up front).
  std::uint32_t initialCapacity = 1u << 14;
  /// Garbage collection runs once this many nodes are allocated (live plus
  /// not yet collected).  It is the floor: after each collection the
  /// threshold rises to twice the nodes that survived.
  std::uint32_t gcThreshold = 1u << 16;
  /// log2 of the *initial* computed-cache size in entries.
  unsigned cacheBitsLog2 = 18;
  /// log2 ceiling for the adaptive computed cache.  The cache doubles in
  /// place (entries kept) whenever the allocated nodes outgrow a fixed
  /// number of entries per node, so a multi-million-node traversal is not
  /// stuck pushing its lookups through the boot-time direct-mapped table.
  /// Set equal to cacheBitsLog2 to pin the historical fixed-size behavior.
  unsigned cacheMaxBitsLog2 = 22;
  /// Growth-triggered automatic dynamic reordering (grouped sifting).  Off by
  /// default: the paper keeps a fixed interleaved order, and verdict/iteration
  /// reproducibility against it requires the order to stay put.  When on, a
  /// sift fires at safe points (handle-level autoGc, engine iteration
  /// boundaries) once the live-node count exceeds reorderTrigger times the
  /// count after the last reorder AND garbage collection failed to get back
  /// under that bar.
  bool autoReorder = false;
  /// Live-node growth factor that arms the next automatic sift.
  double reorderTrigger = 2.0;
  /// Automatic sifting is pointless on tiny arenas: never fire below this
  /// many live nodes.
  std::uint64_t reorderMinLiveNodes = 4096;
};

/// Which resource gave out first when a run is aborted.  kNodes is the
/// *configured* ResourceLimits::maxNodes cap; kNodeIndexSpace is the
/// structural ceiling of the 27-bit node index space (the arena can hold
/// no more nodes no matter what the limits say).
enum class ResourceKind { kNodes, kTime, kCancelled, kNodeIndexSpace };

[[nodiscard]] constexpr const char* resourceKindMessage(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kNodes: return "BDD node limit exceeded";
    case ResourceKind::kTime: return "BDD deadline exceeded";
    case ResourceKind::kCancelled: return "BDD operation cancelled";
    case ResourceKind::kNodeIndexSpace:
      return "BDD node index space exhausted (27-bit node index)";
  }
  return "BDD resource limit exceeded";
}

/// Hard caps applied to every operation of a manager.  Engines install these
/// to reproduce the paper's "Exceeded 60MB." / "Exceeded 40 minutes." rows.
struct ResourceLimits {
  /// Maximum number of allocated (live + not-yet-collected) nodes.
  /// 0 means unlimited.
  std::uint64_t maxNodes = 0;
  /// Wall-clock deadline.  Default never expires.
  Deadline deadline;
  /// Cooperative cross-thread cancellation: when non-null, the manager polls
  /// this flag wherever it polls the deadline and aborts the current
  /// operation with ResourceKind::kCancelled once it reads true.  The flag
  /// (and its owner) must outlive every operation run under these limits.
  /// This is how a scheduler/service thread stops a *running* BDD workload
  /// it no longer needs -- the running-cell half of the cancellation story
  /// that deadline propagation alone cannot provide.
  const std::atomic<bool>* cancelFlag = nullptr;
};

/// Thrown from inside BDD operations when a ResourceLimits cap is hit.
/// The manager remains fully usable afterwards: orphaned intermediate nodes
/// are reclaimed by the next garbage collection.
class ResourceLimitError : public std::runtime_error {
 public:
  explicit ResourceLimitError(ResourceKind kind)
      : std::runtime_error(resourceKindMessage(kind)), kind_(kind) {}

  [[nodiscard]] ResourceKind kind() const { return kind_; }

 private:
  ResourceKind kind_;
};

/// Thrown on API misuse (mixing managers, bad variable index, ...).
class BddUsageError : public std::logic_error {
 public:
  explicit BddUsageError(const std::string& what) : std::logic_error(what) {}
};

}  // namespace icb
