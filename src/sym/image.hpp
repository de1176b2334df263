// Forward image computation via a clustered, conjunctively partitioned
// transition relation with early quantification (Burch/Clarke/Long style,
// the paper's reference [4]).
//
// The relation is never built monolithically: per-bit conjuncts
//   T_k = (v'_k  XNOR  f_k(u, i))
// are greedily clustered under a node cap, and each (current-state or input)
// variable is existentially quantified as soon as the last cluster that
// mentions it has been conjoined -- keeping intermediate products small.
#pragma once

#include <cstdint>
#include <vector>

#include "sym/fsm.hpp"

namespace icb {

/// Greedy clustering of conjuncts under a node cap, plus the early
/// quantification schedule over them: perCluster[c] holds the quantVars whose
/// last occurrence is in cluster c (quantified right after conjoining it),
/// upfront the quantVars no cluster mentions (quantified from the source set
/// before the walk).  One code path serves clusteredExistsProduct and the
/// ImageComputer constructor.
struct ClusterSchedule {
  std::vector<Bdd> clusters;
  std::vector<std::vector<unsigned>> perCluster;
  std::vector<unsigned> upfront;
};

/// Builds the schedule.  quantVars order is respected within each schedule
/// bucket, so a deterministic input yields a deterministic schedule.
ClusterSchedule buildClusterSchedule(BddManager& mgr,
                                     const std::vector<Bdd>& conjuncts,
                                     const std::vector<unsigned>& quantVars,
                                     std::uint64_t clusterCap);

/// exists(quantVars) [ base & conjuncts... ] computed with greedy clustering
/// and early quantification: each variable is quantified right after the
/// last cluster that mentions it.  Shared by the forward images, the
/// functional-dependency engine and the relational Pre/BackImage.
Bdd clusteredExistsProduct(BddManager& mgr, const Bdd& base,
                           const std::vector<Bdd>& conjuncts,
                           const std::vector<unsigned>& quantVars,
                           std::uint64_t clusterCap);

/// Node cap for one cluster of transition conjuncts, in both directions:
/// the forward images' default and the relational Pre/BackImage's cap.
inline constexpr std::uint64_t kClusterCap = 5000;

struct ImageOptions {
  /// Node cap for one cluster of transition conjuncts.
  std::uint64_t clusterCap = kClusterCap;
  /// Build one monolithic relation instead of clusters (test oracle).
  bool monolithic = false;
};

class ImageComputer {
 public:
  ImageComputer(const Fsm& fsm, const ImageOptions& options = {});

  /// States reachable in one transition from `from` (both over cur vars).
  [[nodiscard]] Bdd image(const Bdd& from) const;

  [[nodiscard]] std::size_t clusterCount() const { return clusters_.size(); }

 private:
  const Fsm& fsm_;
  std::vector<Bdd> clusters_;
  /// quantCubes_[i]: cube of cur+input vars whose last occurrence is in
  /// cluster i, quantified right after conjoining that cluster.
  std::vector<Bdd> quantCubes_;
  /// Cur+input vars mentioned by no cluster at all: quantified from `from`
  /// up front.
  Bdd preQuantCube_;
  /// Renaming map nxt -> cur applied to the final product.
  std::vector<unsigned> renameMap_;
};

}  // namespace icb
