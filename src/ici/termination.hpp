// Exact termination test for implicitly conjoined lists (Section III.B).
//
// Deciding G_i == G_{i+1} without building either conjunction decomposes as:
//   X == Y   iff   X => Y and Y => X            (check both implications)
//   X => Y   iff   X => Y_k for every k          (check each member)
//   X => Y_k iff   X_1 & ... & X_n & !Y_k = 0.
//
// implies() and equal() decide the last line by one node-free recursion on
// the tuple (X_1, ..., X_n, !Y_k), branching on its topmost level by
// following arcs (termination.cpp).  disjunctionIsTautology() is the paper's
// procedure on the dual form !X_1 | ... | !X_n | Y_k, kept as the test
// oracle and for bench/ablation_cofactor:
//   1. constant TRUE in the list => tautology; drop constant FALSEs;
//   2. two complementary members => tautology (constant time thanks to
//      complement edges); drop duplicates;
//   3. a pairwise disjunction equal to TRUE => tautology -- obtained for
//      free via Theorem 3 by Restrict-simplifying each member by the
//      negations of the others and re-running step 1;
//   4. otherwise Shannon-expand on a chosen variable (the paper picks the
//      top variable of the first BDD) and recurse on both cofactor lists.
//
// Worst case exponential, "frequently not too time-consuming in practice".
#pragma once

#include <cstdint>
#include <vector>

#include "ici/conjunct_list.hpp"

namespace icb {

/// Which variable step 4 of disjunctionIsTautology cofactors on.  The paper
/// uses kTopOfFirst and notes in Section V that better choices were not
/// investigated; the alternatives exist for bench/ablation_cofactor.
enum class CofactorChoice {
  kTopOfFirst,   ///< top variable of the first BDD in the list (the paper)
  kHighestLevel, ///< the globally topmost variable of any member
  kMostCommon,   ///< top variable shared by the most members
};

/// Knobs of disjunctionIsTautology only.
struct TerminationOptions {
  CofactorChoice cofactorChoice = CofactorChoice::kTopOfFirst;
  /// Use the Theorem 3 Restrict shortcut for step 3.  When off, step 3 is
  /// the literal pairwise OR == TRUE scan.
  bool restrictShortcut = true;
};

/// Counters of both procedures.  For implies()/equal() a "call" is one tuple
/// visited and an expansion one branching on a tuple's topmost level.
struct TerminationStats {
  std::uint64_t tautologyCalls = 0;      ///< recursive calls (tuples visited)
  std::uint64_t shannonExpansions = 0;   ///< Shannon expansions (branchings)
  std::uint64_t step1Hits = 0;           ///< constant-member conclusions
  std::uint64_t step2Hits = 0;           ///< complement-pair conclusions
  std::uint64_t step3Hits = 0;           ///< Theorem 3 conclusions (paper's only)
  std::uint64_t implicationChecks = 0;   ///< X => Y_k sub-problems
  std::uint64_t maxDepth = 0;            ///< deepest Shannon recursion
};

/// Stateless (except statistics) checker over one manager.
class TerminationChecker {
 public:
  explicit TerminationChecker(BddManager& mgr,
                              const TerminationOptions& options = {})
      : mgr_(mgr), options_(options) {}

  /// Is the disjunction of the given functions a tautology?  The paper's
  /// procedure; it builds nodes, so callers keep the disjuncts referenced.
  [[nodiscard]] bool disjunctionIsTautology(std::vector<Edge> disjuncts);

  /// Does the conjunction of X imply the single function y?  Builds no
  /// node; polls the manager's limits once per expansion, so a cap or a
  /// cancellation throws ResourceLimitError from inside the recursion.
  [[nodiscard]] bool implies(const ConjunctList& x, const Bdd& y);

  /// Does the conjunction of X imply the conjunction of Y?
  [[nodiscard]] bool implies(const ConjunctList& x, const ConjunctList& y);

  /// Exact semantic equality of two implicitly conjoined lists: the
  /// structural screen, then both implications, superset => subset first.
  [[nodiscard]] bool equal(const ConjunctList& candidateSubset,
                           const ConjunctList& candidateSuperset);

  [[nodiscard]] const TerminationStats& stats() const { return stats_; }
  void resetStats() { stats_ = TerminationStats{}; }

 private:
  [[nodiscard]] bool tautRec(std::vector<Edge> disjuncts, std::uint64_t depth);
  [[nodiscard]] unsigned chooseVar(const std::vector<Edge>& disjuncts) const;

  BddManager& mgr_;
  TerminationOptions options_;
  TerminationStats stats_;
};

}  // namespace icb
