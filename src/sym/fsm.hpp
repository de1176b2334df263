// Fsm: a non-deterministic finite-state machine in functional form.
//
// The machine is deterministic given its inputs: every state bit has a
// next-state function over (current state, inputs), and the inputs are free
// -- quantifying them yields the non-deterministic transition relation
//   delta(u, v) = exists i . AND_k (v_k == f_k(u, i)).
//
// With this representation the three image operators of the paper are:
//   Image(Z)     = rename(exists u,i . Z(u) & AND_k (v_k == f_k(u,i)))
//   PreImage(Z)  = exists i . Z[u := F(u, i)]
//   BackImage(Z) = forall i . Z[u := F(u, i)]   ( == !PreImage(!Z) )
// BackImage distributes over conjunction (Theorem 1), which is what lets the
// backward traversal keep G_i implicitly conjoined.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ici/conjunct_list.hpp"
#include "sym/var_manager.hpp"

namespace icb {

class Fsm {
 public:
  explicit Fsm(BddManager& mgr) : mgr_(&mgr), vars_(mgr) {}

  [[nodiscard]] BddManager& mgr() const { return *mgr_; }
  [[nodiscard]] VarManager& vars() { return vars_; }
  [[nodiscard]] const VarManager& vars() const { return vars_; }

  void setInit(Bdd init) { init_ = std::move(init); }
  [[nodiscard]] const Bdd& init() const { return init_; }

  /// Sets the next-state function of a state bit (over cur + input vars).
  void setNext(unsigned stateBitIndex, Bdd fn);
  [[nodiscard]] const Bdd& next(unsigned stateBitIndex) const {
    return next_[stateBitIndex];
  }

  /// Adds one conjunct of the property G being verified.
  void addInvariant(Bdd g) { invariant_.push_back(std::move(g)); }
  /// Adds a user-supplied "assisting invariant" (a lemma).  Kept separate so
  /// the Table 1 (with assists) and Table 2 (without) runs share one model.
  void addAssistInvariant(Bdd g) { assists_.push_back(std::move(g)); }

  [[nodiscard]] const std::vector<Bdd>& invariantConjuncts() const {
    return invariant_;
  }
  [[nodiscard]] const std::vector<Bdd>& assistConjuncts() const {
    return assists_;
  }

  /// The property as an implicitly conjoined list; assists appended on
  /// request.
  [[nodiscard]] ConjunctList property(bool withAssists) const;

  /// Throws BddUsageError unless every state bit has a next function and
  /// init is set.
  void validate() const;

  // ---- images ----------------------------------------------------------------

  /// BackImage over the machine: forall inputs . z[cur := F(cur, inputs)].
  /// Computed as !PreImage(!z) through the partitioned relational product.
  [[nodiscard]] Bdd backImage(const Bdd& z) const;

  /// PreImage: exists inputs . z[cur := F(cur, inputs)].  Computed as
  /// exists nxt,inputs . z[cur -> nxt] & AND_k (nxt_k == f_k), clustered
  /// with early quantification; only the state bits in z's support
  /// contribute conjuncts.
  [[nodiscard]] Bdd preImage(const Bdd& z) const;

  /// Reference implementations by direct simultaneous substitution
  /// (exponential in bad cases; kept as the oracle for tests).
  [[nodiscard]] Bdd backImageByCompose(const Bdd& z) const;
  [[nodiscard]] Bdd preImageByCompose(const Bdd& z) const;

  // ---- concrete simulation (trace validation) ------------------------------

  /// Evaluates one transition: `values` must assign every cur and input
  /// variable; returns a values vector with the cur bits replaced by the
  /// next state (input and nxt positions are zeroed).
  [[nodiscard]] std::vector<char> step(std::span<const char> values) const;

  /// Renders the state part of an assignment, for counterexample printing.
  /// Model classes may install a pretty-printer via setStatePrinter.
  using StatePrinter =
      std::function<std::string(const Fsm&, std::span<const char>)>;
  void setStatePrinter(StatePrinter p) { printer_ = std::move(p); }
  [[nodiscard]] std::string describeState(std::span<const char> values) const;

 private:
  [[nodiscard]] std::vector<Edge> composeMap() const;

  BddManager* mgr_;
  VarManager vars_;
  Bdd init_;
  std::vector<Bdd> next_;
  std::vector<Bdd> invariant_;
  std::vector<Bdd> assists_;
  StatePrinter printer_;
};

}  // namespace icb
